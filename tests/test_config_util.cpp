// Tests for util::Config and util::atomic_write_file.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "util/atomic_file.hpp"
#include "util/config.hpp"

namespace caem::util {
namespace {

TEST(Config, ParsesArgsAndTypes) {
  const Config config = Config::from_args({"a=1", "b=2.5", "c=hello", "d=true"});
  EXPECT_EQ(config.get_int("a", 0), 1);
  EXPECT_DOUBLE_EQ(config.get_double("b", 0.0), 2.5);
  EXPECT_EQ(config.get_string("c", ""), "hello");
  EXPECT_TRUE(config.get_bool("d", false));
}

TEST(Config, FallbacksForMissingKeys) {
  const Config config = Config::from_args({});
  EXPECT_EQ(config.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(config.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(config.get_bool("missing", false));
}

TEST(Config, MalformedValuesThrow) {
  const Config config = Config::from_args({"x=abc", "y=1.2.3", "z=maybe"});
  EXPECT_THROW(config.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW(config.get_double("y", 0.0), std::invalid_argument);
  EXPECT_THROW(config.get_bool("z", false), std::invalid_argument);
}

/// what() of the std::invalid_argument `fn` throws ("" if none).
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Config, NonFiniteNumbersAreRejectedByName) {
  const Config config = Config::from_args({"a=nan", "b=inf", "c=-inf", "d=NaN", "e=1e999"});
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    const std::string message = rejection([&] { (void)config.get_double(key, 0.0); });
    EXPECT_NE(message.find(std::string("'") + key + "'"), std::string::npos)
        << key << ": '" << message << "'";
  }
}

TEST(Config, UnsignedGetterRangeChecksInsteadOfWrapping) {
  const Config config = Config::from_args({"ok=42", "neg=-1", "wide=70000", "word=x"});
  EXPECT_EQ(config.get_uint("ok", 0), 42u);
  EXPECT_EQ(config.get_uint("missing", 7), 7u);
  for (const char* key : {"neg", "wide", "word"}) {
    const std::string message = rejection([&] { (void)config.get_uint(key, 0, 65535); });
    EXPECT_NE(message.find(std::string("'") + key + "'"), std::string::npos)
        << key << ": '" << message << "'";
  }
  EXPECT_TRUE(config.unconsumed().empty());
}

TEST(Config, MalformedTokenThrows) {
  EXPECT_THROW(Config::from_args({"noequals"}), std::invalid_argument);
}

TEST(Config, FromTextWithCommentsAndBlanks) {
  const Config config = Config::from_text("# comment\n  a = 3 \n\n b=4 # trailing\n");
  EXPECT_EQ(config.get_int("a", 0), 3);
  EXPECT_EQ(config.get_int("b", 0), 4);
  EXPECT_EQ(config.size(), 2u);
}

TEST(Config, UnconsumedDetectsTypos) {
  const Config config = Config::from_args({"real=1", "typo=2"});
  (void)config.get_int("real", 0);
  const auto leftover = config.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(Config, FromTextCrlfEmptyValuesAndDuplicates) {
  const Config config = Config::from_text("a = 1\r\nempty =\r\ndup = first\ndup = second\r\n");
  EXPECT_EQ(config.get_int("a", 0), 1);
  // Empty values are legal and distinct from absent keys.
  EXPECT_TRUE(config.has("empty"));
  EXPECT_EQ(config.get_string("empty", "fallback"), "");
  // A duplicated key keeps the last value.
  EXPECT_EQ(config.get_string("dup", ""), "second");
  EXPECT_EQ(config.size(), 3u);
}

TEST(Config, FromFileWithIncludesAndOverrides) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "caem_cfg_test";
  fs::create_directories(dir / "nested");
  {
    std::ofstream common(dir / "nested" / "common.cfg");
    common << "shared = 1\noverridden = from_include\n";
  }
  {
    std::ofstream main_file(dir / "main.cfg");
    main_file << "# include resolves relative to the including file\r\n"
              << "include nested/common.cfg\n"
              << "overridden = from_main\n"
              << "# include below is commented out and must stay inert\n"
              << "# include nested/common.cfg\n";
  }
  const Config config = Config::from_file((dir / "main.cfg").string());
  EXPECT_EQ(config.get_int("shared", 0), 1);
  EXPECT_EQ(config.get_string("overridden", ""), "from_main");
  EXPECT_EQ(config.size(), 2u);
  // from_file is from_text of one self-contained text: the resolved
  // text parses alone, to the same entries.
  const std::string resolved = Config::resolve_includes((dir / "main.cfg").string());
  EXPECT_EQ(Config::from_text(resolved).entries(), config.entries());
  EXPECT_THROW((void)Config::from_file((dir / "absent.cfg").string()), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(Config, FromTextRejectsAnUnresolvedIncludeNamingTheLine) {
  try {
    (void)Config::from_text("# header\na = 1\ninclude common.scn\n");
    FAIL() << "an include line was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("'include common.scn'"), std::string::npos) << what;
  }
}

TEST(Config, FromFileRejectsIncludeCycles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "caem_cfg_cycle";
  fs::create_directories(dir);
  {
    std::ofstream self(dir / "self.cfg");
    self << "include self.cfg\n";
  }
  EXPECT_THROW((void)Config::from_file((dir / "self.cfg").string()), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(Config, EntriesSnapshotSortedAndUnconsumedAfterCopy) {
  const Config config = Config::from_args({"zeta=1", "alpha=2"});
  const auto entries = config.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, "alpha");
  EXPECT_EQ(entries[1].first, "zeta");
  // entries() does not consume; copies carry consumption state.
  EXPECT_EQ(config.unconsumed().size(), 2u);
  (void)config.get_int("alpha", 0);
  const Config copy = config;
  ASSERT_EQ(copy.unconsumed().size(), 1u);
  EXPECT_EQ(copy.unconsumed()[0], "zeta");
}

TEST(Config, ConcurrentGettersAreSafe) {
  // Const getters mutate the consumed-tracking map behind a mutex; this
  // exercises the contract under a thread sanitizer / stress run.
  Config config;
  for (int i = 0; i < 64; ++i) config.set("key" + std::to_string(i), "1");
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&config] {
      for (int i = 0; i < 64; ++i) {
        (void)config.get_int("key" + std::to_string(i), 0);
        (void)config.unconsumed();
      }
    });
  }
  for (auto& thread : readers) thread.join();
  EXPECT_TRUE(config.unconsumed().empty());
}

TEST(Config, BoolSpellings) {
  const Config config =
      Config::from_args({"a=YES", "b=off", "c=1", "d=FALSE"});
  EXPECT_TRUE(config.get_bool("a", false));
  EXPECT_FALSE(config.get_bool("b", true));
  EXPECT_TRUE(config.get_bool("c", false));
  EXPECT_FALSE(config.get_bool("d", true));
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(AtomicFile, WritesABareFileNameInTheWorkingDirectory) {
  // `caem fetch ... --out=name.csv` names no directory: there is no
  // parent to create, and the write must still land.
  const std::string name = "caem_atomic_bare_" + std::to_string(::getpid()) + ".txt";
  atomic_write_file(name, "payload", "bare name");
  std::ifstream in(name, std::ios::binary);
  std::string text;
  std::getline(in, text);
  EXPECT_EQ(text, "payload");
  std::filesystem::remove(name);
}

}  // namespace
}  // namespace caem::util
