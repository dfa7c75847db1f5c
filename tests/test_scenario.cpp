// Tests for the scenario subsystem: axis parsing (incl. joint axes),
// grid expansion, spec dispatch/rejection, the one-queue sweep engine,
// the digest-keyed result cache and the trace artifact sink.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/result_cache.hpp"
#include "scenario/scenario_spec.hpp"
#include "scenario/sweep.hpp"

namespace caem::scenario {
namespace {

// ------------------------------------------------------------------ axes

TEST(Axis, ParsesListWithTrimming) {
  const Axis axis = parse_axis("traffic_rate_pps", "list: 5 , 10 ,15");
  EXPECT_EQ(axis.key, "traffic_rate_pps");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[0], "5");
  EXPECT_EQ(axis.values[1], "10");
  EXPECT_EQ(axis.values[2], "15");
}

TEST(Axis, ParsesInclusiveRange) {
  const Axis axis = parse_axis("load", "range:5:30:5");
  ASSERT_EQ(axis.values.size(), 6u);
  EXPECT_EQ(axis.values.front(), "5");
  EXPECT_EQ(axis.values.back(), "30");
  const Axis fractional = parse_axis("x", "range:0.5:2:0.5");
  ASSERT_EQ(fractional.values.size(), 4u);
  EXPECT_EQ(fractional.values[1], "1");
  EXPECT_EQ(fractional.values[3], "2");
}

TEST(Axis, RejectsBadSpecs) {
  EXPECT_THROW((void)parse_axis("k", "5,10"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("k", "list:5,,10"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("k", "range:5:30"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("k", "range:5:30:0"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("k", "range:30:5:5"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("k", "range:a:b:c"), std::invalid_argument);
}

TEST(Axis, JointAxisParsesAndValidates) {
  const Axis axis = parse_axis("burst_min,burst_max", "list:1/1, 3/8 ,8/16");
  ASSERT_EQ(axis.values.size(), 3u);
  EXPECT_EQ(axis.values[1], "3/8");
  std::vector<std::pair<std::string, std::string>> assignments;
  append_assignments(axis, axis.values[1], assignments);
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].first, "burst_min");
  EXPECT_EQ(assignments[0].second, "3");
  EXPECT_EQ(assignments[1].first, "burst_max");
  EXPECT_EQ(assignments[1].second, "8");
  // Component-count mismatch, empty component, range spec: all rejected.
  EXPECT_THROW((void)parse_axis("a,b", "list:1/2/3"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("a,b", "list:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_axis("a,b", "range:1:3:1"), std::invalid_argument);
  EXPECT_EQ(axis_key_components("a, b").size(), 2u);
  EXPECT_THROW((void)axis_key_components("a,,b"), std::invalid_argument);
}

// ------------------------------------------------------------------ grid

TEST(Grid, CartesianCountAndDeterministicOrder) {
  const std::vector<Axis> axes = {{"a", {"1", "2"}}, {"b", {"x", "y", "z"}}};
  EXPECT_EQ(grid_size(axes), 6u);
  const auto grid = expand_grid(axes);
  ASSERT_EQ(grid.size(), 6u);
  // Last axis fastest: (1,x) (1,y) (1,z) (2,x) ...
  EXPECT_EQ(describe(grid[0]), "a=1, b=x");
  EXPECT_EQ(describe(grid[1]), "a=1, b=y");
  EXPECT_EQ(describe(grid[3]), "a=2, b=x");
  EXPECT_EQ(grid[5].index, 5u);
  EXPECT_EQ(describe(grid[5]), "a=2, b=z");
}

TEST(Grid, NoAxesIsSingleBaselinePoint) {
  const auto grid = expand_grid({});
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_TRUE(grid[0].assignments.empty());
  EXPECT_EQ(describe(grid[0]), "(baseline)");
}

TEST(Grid, EmptyAxisRejected) {
  EXPECT_THROW((void)grid_size({Axis{"a", {}}}), std::invalid_argument);
}

TEST(Grid, JointAxisExpandsToSplitAssignments) {
  const std::vector<Axis> axes = {{"burst_min,burst_max", {"1/1", "3/8"}},
                                  {"traffic_rate_pps", {"5", "10"}}};
  EXPECT_EQ(grid_size(axes), 4u);  // joint axis counts once, not per key
  const auto grid = expand_grid(axes);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(describe(grid[0]), "burst_min=1, burst_max=1, traffic_rate_pps=5");
  EXPECT_EQ(describe(grid[3]), "burst_min=3, burst_max=8, traffic_rate_pps=10");
  ASSERT_EQ(grid[2].assignments.size(), 3u);  // two joint components + one plain
}

TEST(Grid, JointAxisSweepsConfigKeysInLockstep) {
  const ScenarioSpec spec = ScenarioSpec::from_config(util::Config::from_text(
      "sweep.burst_min,burst_max = list:1/1,3/8,8/16\n"));
  const auto grid = expand_grid(spec.axes);
  ASSERT_EQ(grid.size(), 3u);
  const core::NetworkConfig config = spec.config_at(grid[2]);
  EXPECT_EQ(config.burst.min_packets, 8u);
  EXPECT_EQ(config.burst.max_packets, 16u);
  // An invalid pair must still die in NetworkConfig::validate.
  EXPECT_THROW((void)ScenarioSpec::from_config(
                   util::Config::from_text("sweep.burst_min,burst_max = list:8/1\n")),
               std::invalid_argument);
}

// ------------------------------------------------------------------ spec

TEST(Spec, ParsesScenarioKeysAndConfigOverrides) {
  const ScenarioSpec spec = ScenarioSpec::from_config(util::Config::from_text(
      "scenario.name = demo\n"
      "scenario.protocols = leach, scheme2\n"
      "scenario.seed = 7\n"
      "scenario.reps = 3\n"
      "scenario.max_sim_s = 25\n"
      "scenario.run_to_death = true\n"
      "sweep.traffic_rate_pps = list:5,10\n"
      "node_count = 20\n"
      "output.csv = out.csv\n"));
  EXPECT_EQ(spec.name, "demo");
  ASSERT_EQ(spec.protocols.size(), 2u);
  EXPECT_EQ(spec.protocols[1], core::protocol_from_string("scheme2"));
  EXPECT_EQ(spec.base_seed, 7u);
  EXPECT_EQ(spec.replications, 3u);
  EXPECT_DOUBLE_EQ(spec.options.max_sim_s, 25.0);
  EXPECT_TRUE(spec.options.run_to_death);
  EXPECT_EQ(spec.csv_path, "out.csv");
  EXPECT_EQ(spec.total_jobs(), 2u * 2u * 3u);
  const auto grid = expand_grid(spec.axes);
  const core::NetworkConfig config = spec.config_at(grid[1]);
  EXPECT_EQ(config.node_count, 20u);
  EXPECT_DOUBLE_EQ(config.traffic_rate_pps, 10.0);
}

TEST(Spec, RejectsUnknownKeysEverywhere) {
  // Typo'd config key.
  EXPECT_THROW((void)ScenarioSpec::from_config(util::Config::from_text("dopler_hz = 5\n")),
               std::invalid_argument);
  // Typo'd scenario field.
  EXPECT_THROW(
      (void)ScenarioSpec::from_config(util::Config::from_text("scenario.repz = 3\n")),
      std::invalid_argument);
  // Unknown output kind.
  EXPECT_THROW((void)ScenarioSpec::from_config(util::Config::from_text("output.xml = x\n")),
               std::invalid_argument);
  // Sweep over a key NetworkConfig does not know.
  EXPECT_THROW((void)ScenarioSpec::from_config(
                   util::Config::from_text("sweep.bogus_knob = list:1,2\n")),
               std::invalid_argument);
  // Value that fails NetworkConfig::validate.
  EXPECT_THROW((void)ScenarioSpec::from_config(util::Config::from_text("node_count = 1\n")),
               std::invalid_argument);
}

/// what() of the std::invalid_argument parsing `text` throws ("" if
/// none); the grid is expanded and every point's config built, as a run
/// does before its first cell.
std::string spec_rejection(const std::string& text) {
  try {
    const ScenarioSpec spec = ScenarioSpec::from_config(util::Config::from_text(text));
    for (const GridPoint& point : expand_grid(spec.axes)) (void)spec.config_at(point);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Spec, RejectsNonFiniteNumbersNamingTheKey) {
  const std::pair<const char*, const char*> cases[] = {
      {"initial_energy_j = nan\n", "initial_energy_j"},
      {"field_size_m = nan\n", "field_size_m"},
      {"scenario.max_sim_s = inf\n", "scenario.max_sim_s"},
      // A NaN step would make the value count a NaN cast to size_t.
      {"sweep.traffic_rate_pps = range:0:1:nan\n", "traffic_rate_pps"},
      {"sweep.traffic_rate_pps = range:1:inf:1\n", "traffic_rate_pps"},
      {"sweep.traffic_rate_pps = list:5,nan\n", "traffic_rate_pps"},
      // Finite but too many values to expand.
      {"sweep.traffic_rate_pps = range:1:1e300:1e-300\n", "traffic_rate_pps"},
  };
  for (const auto& [text, key] : cases) {
    EXPECT_NE(spec_rejection(text).find(key), std::string::npos) << text;
  }
}

TEST(Spec, RejectsNegativeCountsNamingTheKey) {
  // A wrapped scenario.threads=-1 would start one lane per job.
  for (const char* text : {"scenario.threads = -1\n", "scenario.threads = 100000\n",
                           "scenario.reps = -1\n", "scenario.seed = -1\n",
                           "output.trace_points = -2\n"}) {
    const std::string key = util::trim(std::string(text).substr(0, std::string(text).find('=')));
    EXPECT_NE(spec_rejection(text).find("'" + key + "'"), std::string::npos) << text;
  }
  EXPECT_EQ(ScenarioSpec::from_config(util::Config::from_text("scenario.threads = 3\n")).threads,
            3u);
}

TEST(ExampleScenarios, EveryFileLoadsExpandsAndValidates) {
  // Every figure, ablation and extension lives only as a .scn file:
  // each must parse, expand and build a valid config at every point.
  namespace fs = std::filesystem;
  std::size_t files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(CAEM_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ++files;
    SCOPED_TRACE(entry.path().filename().string());
    const ScenarioSpec spec = ScenarioSpec::from_file(entry.path().string());
    EXPECT_GT(spec.total_jobs(), 0u);
    for (const GridPoint& point : expand_grid(spec.axes)) {
      EXPECT_NO_THROW(spec.config_at(point).validate()) << describe(point);
    }
  }
  EXPECT_GE(files, 21u);
}

TEST(Spec, RejectsRetiredQueueKindKnob) {
  // The simulator has exactly one pending-event set, so there is no
  // queue kind to choose: the key is unknown, in a file and as a CLI
  // override.
  EXPECT_THROW((void)ScenarioSpec::from_config(util::Config::from_text("sim.queue_kind = heap\n")),
               std::invalid_argument);
  ScenarioSpec spec;
  EXPECT_THROW(spec.apply_cli_overrides(util::Config::from_args({"sim.queue_kind=ladder"})),
               std::invalid_argument);
}

TEST(Spec, CliOverridesReplaceAxesAndFields) {
  ScenarioSpec spec = ScenarioSpec::from_config(
      util::Config::from_text("sweep.traffic_rate_pps = list:5,10,15\n"));
  spec.apply_cli_overrides(util::Config::from_args(
      {"sweep.traffic_rate_pps=list:20", "scenario.reps=5", "node_count=30"}));
  ASSERT_EQ(spec.axes.size(), 1u);
  ASSERT_EQ(spec.axes[0].values.size(), 1u);
  EXPECT_EQ(spec.axes[0].values[0], "20");
  EXPECT_EQ(spec.replications, 5u);
  EXPECT_THROW(spec.apply_cli_overrides(util::Config::from_args({"typo_key=1"})),
               std::invalid_argument);
}

TEST(Spec, LoadsFileWithInclude) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "caem_scn_test";
  fs::create_directories(dir);
  {
    std::ofstream base(dir / "base.scn");
    base << "scenario.name = base\r\nnode_count = 25\nscenario.max_sim_s = 10\n";
  }
  {
    std::ofstream derived(dir / "derived.scn");
    derived << "include base.scn\n"
            << "scenario.name = derived  # override after include\n"
            << "sweep.traffic_rate_pps = list:4,8\n";
  }
  const ScenarioSpec spec = ScenarioSpec::from_file((dir / "derived.scn").string());
  EXPECT_EQ(spec.name, "derived");
  EXPECT_DOUBLE_EQ(spec.options.max_sim_s, 10.0);
  ASSERT_EQ(spec.axes.size(), 1u);
  const core::NetworkConfig config = spec.config_at(expand_grid(spec.axes)[0]);
  EXPECT_EQ(config.node_count, 25u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------- engine

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.base_config.node_count = 10;
  spec.base_config.field_size_m = 40.0;
  spec.base_config.ch_fraction = 0.2;
  spec.base_config.round_duration_s = 5.0;
  spec.base_seed = 42;
  spec.replications = 2;
  spec.options.max_sim_s = 8.0;
  spec.protocols = {core::protocol_from_string("leach"), core::protocol_from_string("scheme2")};
  spec.axes = {Axis{"traffic_rate_pps", {"3", "6"}}};
  return spec;
}

TEST(Engine, FoldsPerPointPerProtocol) {
  const ScenarioResult result = run_scenario(tiny_spec());
  EXPECT_EQ(result.total_jobs, 8u);
  ASSERT_EQ(result.points.size(), 2u);
  for (const PointResult& point : result.points) {
    ASSERT_EQ(point.protocols.size(), 2u);
    for (const ProtocolResult& entry : point.protocols) {
      EXPECT_EQ(entry.replicated.runs.size(), 2u);
      EXPECT_GT(entry.replicated.total_consumed_j.mean(), 0.0);
    }
  }
  EXPECT_DOUBLE_EQ(result.points[0].config.traffic_rate_pps, 3.0);
  EXPECT_DOUBLE_EQ(result.points[1].config.traffic_rate_pps, 6.0);
}

TEST(Engine, FlattenedMatchesBarrierAndRunReplicated) {
  // The one flattened queue must fold exactly what a per-(point,
  // protocol) barrier loop of replications — seeds base, base+1, ... —
  // computes outside the engine.
  const ScenarioSpec spec = tiny_spec();
  const ScenarioResult flat = run_scenario(spec);
  std::vector<std::size_t> reps(spec.replications);
  std::iota(reps.begin(), reps.end(), std::size_t{0});
  for (std::size_t p = 0; p < flat.points.size(); ++p) {
    for (std::size_t pr = 0; pr < spec.protocols.size(); ++pr) {
      const core::Replicated barrier = core::fold_runs(core::parallel_runs_ordered(
          spec.replications, reps, [&](std::size_t rep) {
            return core::SimulationRunner::run(flat.points[p].config, spec.protocols[pr],
                                               spec.base_seed + rep, spec.options);
          }));
      const core::Replicated& engine = flat.points[p].protocols[pr].replicated;
      EXPECT_DOUBLE_EQ(engine.total_consumed_j.mean(), barrier.total_consumed_j.mean());
      EXPECT_DOUBLE_EQ(engine.lifetime_s.mean(), barrier.lifetime_s.mean());
      EXPECT_DOUBLE_EQ(engine.delivery_rate.mean(), barrier.delivery_rate.mean());
      EXPECT_EQ(engine.runs[0].generated, barrier.runs[0].generated);
    }
  }
}

TEST(Engine, SummaryTableExposesFoldExclusionContract) {
  const ScenarioResult result = run_scenario(tiny_spec());
  const util::TableWriter table = summary_table(result);
  std::ostringstream csv;
  table.render_csv(csv);
  const std::string header = csv.str().substr(0, csv.str().find('\n'));
  // reps counts folded runs; n_delivering counts the subset that
  // delivered over the air and therefore fed the delivery/delay means.
  EXPECT_NE(header.find("reps"), std::string::npos);
  EXPECT_NE(header.find("n_delivering"), std::string::npos);
  for (const PointResult& point : result.points) {
    for (const ProtocolResult& entry : point.protocols) {
      EXPECT_LE(entry.replicated.delivery_rate.count(), entry.replicated.runs.size());
    }
  }
}

// ----------------------------------------------------------------- cache

namespace fs = std::filesystem;

/// Fresh scratch dir per test (ctest runs tests concurrently).
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("caem_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string summary_csv(const ScenarioResult& result) {
  std::ostringstream out;
  summary_table(result).render_csv(out);
  return out.str();
}

TEST(Cache, RoundTripAndMissOnAbsentOrCorrupt) {
  const fs::path dir = scratch_dir("cache_roundtrip");
  const ResultCache cache(dir.string());
  core::NetworkConfig config;
  core::RunOptions options;
  core::RunResult result;
  result.protocol = core::protocol_from_string("scheme2");
  result.seed = 7;
  result.total_consumed_j = 123.456;
  result.avg_remaining_energy.add(0.0, 10.0);

  const std::string path =
      cache.entry_path(config, core::protocol_from_string("scheme2"), 7, options);
  EXPECT_EQ(cache.load(path), std::nullopt);  // absent
  cache.store(path, result);
  const auto loaded = cache.load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->total_consumed_j, 123.456);
  EXPECT_EQ(loaded->seed, 7u);

  // The key pins protocol, seed and options: siblings stay misses.
  EXPECT_EQ(cache.load(cache.entry_path(config, core::protocol_from_string("leach"), 7, options)),
            std::nullopt);
  EXPECT_EQ(cache.load(cache.entry_path(config, core::protocol_from_string("scheme2"), 8, options)),
            std::nullopt);
  core::RunOptions longer;
  longer.max_sim_s = 999.0;
  EXPECT_EQ(cache.load(cache.entry_path(config, core::protocol_from_string("scheme2"), 7, longer)),
            std::nullopt);
  // A different config digests to a different directory.
  core::NetworkConfig edited = config;
  edited.traffic_rate_pps = 9.0;
  EXPECT_NE(cache.entry_path(edited, core::protocol_from_string("scheme2"), 7, options), path);

  // Corruption reads as a miss, never as data.
  std::ofstream(path, std::ios::trunc) << "{\"v\":1,\"torn";
  EXPECT_EQ(cache.load(path), std::nullopt);
  fs::remove_all(dir);
}

TEST(Cache, SecondRunIsPureHitsWithIdenticalResults) {
  const fs::path dir = scratch_dir("cache_rerun");
  ScenarioSpec spec = tiny_spec();
  spec.cache_dir = dir.string();

  const ScenarioResult cold = run_scenario(spec);
  EXPECT_TRUE(cold.cache_enabled);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.executed_jobs, cold.total_jobs);

  const ScenarioResult warm = run_scenario(spec);
  EXPECT_EQ(warm.cache_hits, warm.total_jobs);
  EXPECT_EQ(warm.executed_jobs, 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // The folded summary must be indistinguishable from the computed one.
  EXPECT_EQ(summary_csv(warm), summary_csv(cold));
  fs::remove_all(dir);
}

TEST(Cache, EditedAxisExecutesOnlyTheNewCells) {
  const fs::path dir = scratch_dir("cache_edit");
  ScenarioSpec spec = tiny_spec();
  spec.cache_dir = dir.string();
  (void)run_scenario(spec);  // warm: traffic 3, 6

  // Editing one axis must cost exactly the new cells: the old points'
  // configs digest identically, so their jobs never re-execute.
  ScenarioSpec edited = spec;
  edited.axes = {Axis{"traffic_rate_pps", {"3", "6", "9"}}};
  const ScenarioResult result = run_scenario(edited);
  const std::size_t new_cell_jobs = edited.protocols.size() * edited.replications;
  EXPECT_EQ(result.total_jobs, 12u);
  EXPECT_EQ(result.executed_jobs, new_cell_jobs);            // only traffic=9
  EXPECT_EQ(result.cache_hits, result.total_jobs - new_cell_jobs);

  // And the third run is free entirely.
  const ScenarioResult warm = run_scenario(edited);
  EXPECT_EQ(warm.executed_jobs, 0u);
  fs::remove_all(dir);
}

TEST(Cache, NoCacheFlagAndBarrierModeContracts) {
  ScenarioSpec spec = tiny_spec();
  // There is no barrier mode to select: the key is unknown like any typo.
  EXPECT_THROW(spec.apply_cli_overrides(util::Config::from_args({"scenario.flatten=0"})),
               std::invalid_argument);
  // Nor does a scenario choose its cache: only `caem run --cache-dir` does.
  EXPECT_THROW(spec.apply_cli_overrides(util::Config::from_args({"scenario.cache_dir=c"})),
               std::invalid_argument);
}

// ----------------------------------------------------------------- trace

TEST(Trace, ArtifactsRoundTripByteForByteThroughTheCache) {
  const fs::path cache_dir = scratch_dir("trace_cache");
  const fs::path trace_cold = scratch_dir("trace_cold");
  const fs::path trace_warm = scratch_dir("trace_warm");

  ScenarioSpec spec = tiny_spec();
  spec.cache_dir = cache_dir.string();
  spec.trace_dir = trace_cold.string();
  spec.trace_points = 9;
  std::ostringstream log;
  write_outputs(run_scenario(spec), spec, log);  // computes + stores

  spec.trace_dir = trace_warm.string();
  const ScenarioResult warm = run_scenario(spec);  // pure cache hits
  EXPECT_EQ(warm.executed_jobs, 0u);
  write_outputs(warm, spec, log);

  // 2 points x 2 protocols = 4 trace files, identical bytes both ways:
  // RunResult serialization preserves the traces exactly.
  std::size_t compared = 0;
  for (const auto& entry : fs::directory_iterator(trace_cold)) {
    const fs::path warm_file = trace_warm / entry.path().filename();
    ASSERT_TRUE(fs::exists(warm_file)) << warm_file;
    std::ifstream a(entry.path(), std::ios::binary);
    std::ifstream b(warm_file, std::ios::binary);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str()) << entry.path();
    // Header comment + column header + trace_points rows.
    std::size_t lines = 0;
    for (const char c : sa.str()) lines += c == '\n';
    EXPECT_EQ(lines, 2u + spec.trace_points);
    ++compared;
  }
  EXPECT_EQ(compared, 4u);
  fs::remove_all(cache_dir);
  fs::remove_all(trace_cold);
  fs::remove_all(trace_warm);
}

TEST(Engine, SummaryTableShapeAndOutputs) {
  const ScenarioResult result = run_scenario(tiny_spec());
  const util::TableWriter table = summary_table(result);
  EXPECT_EQ(table.row_count(), 4u);  // 2 points x 2 protocols
  ScenarioSpec spec = tiny_spec();
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "caem_out_test";
  fs::create_directories(dir);
  spec.csv_path = (dir / "t.csv").string();
  spec.json_path = (dir / "t.json").string();
  std::ostringstream log;
  write_outputs(result, spec, log);
  EXPECT_TRUE(fs::exists(spec.csv_path));
  EXPECT_TRUE(fs::exists(spec.json_path));
  EXPECT_NE(log.str().find("t.csv"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace caem::scenario
