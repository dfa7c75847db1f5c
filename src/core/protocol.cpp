#include "core/protocol.hpp"

#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "core/config.hpp"
#include "leach/clustering.hpp"

namespace caem::core {

namespace {

ProtocolSpec::ClusteringFactory leach_rounds() {
  return [](const NetworkConfig& config) -> std::unique_ptr<leach::ClusteringStrategy> {
    return std::make_unique<leach::RoundElectionClustering>(
        config.node_count, config.ch_fraction, config.round_duration_s,
        config.channel.spatial_bin_m);
  };
}

ProtocolSpec::ClusteringFactory static_once() {
  return [](const NetworkConfig& config) -> std::unique_ptr<leach::ClusteringStrategy> {
    return std::make_unique<leach::StaticClustering>(config.node_count, config.ch_fraction,
                                                     config.channel.spatial_bin_m);
  };
}

}  // namespace

struct ProtocolRegistry::Impl {
  mutable std::mutex mutex;
  // Deque keeps spec addresses stable as registrations grow — Protocol
  // handles are raw pointers into it.
  std::deque<ProtocolSpec> specs;
  std::map<std::string, const ProtocolSpec*> by_name;  // canonical names + aliases

  [[nodiscard]] std::string valid_names_locked() const {
    std::string names;
    for (const ProtocolSpec& spec : specs) {
      if (!names.empty()) names += ", ";
      names += spec.name;
      for (const std::string& alias : spec.aliases) names += "|" + alias;
    }
    return names;
  }
};

ProtocolRegistry& ProtocolRegistry::instance() {
  static ProtocolRegistry registry;
  return registry;
}

ProtocolRegistry::ProtocolRegistry() : impl_(std::make_unique<Impl>()) {
  // ---- the paper's evaluated trio (Fig 8-12) ----
  {
    ProtocolSpec spec;
    spec.name = "pure-leach";
    spec.aliases = {"leach"};
    spec.summary = "LEACH without channel adaptation (reference)";
    spec.policy = queueing::ThresholdPolicy::kNone;
    spec.clustering_name = "leach-rounds";
    spec.clustering = leach_rounds();
    spec.paper_protocol = true;
    add(std::move(spec));
  }
  {
    ProtocolSpec spec;
    spec.name = "caem-scheme1";
    spec.aliases = {"scheme1", "adaptive"};
    spec.summary = "CAEM + LEACH with adaptive threshold adjustment (Fig 6)";
    spec.policy = queueing::ThresholdPolicy::kAdaptive;
    spec.clustering_name = "leach-rounds";
    spec.clustering = leach_rounds();
    spec.paper_protocol = true;
    add(std::move(spec));
  }
  {
    ProtocolSpec spec;
    spec.name = "caem-scheme2";
    spec.aliases = {"scheme2", "fixed"};
    spec.summary = "CAEM + LEACH, threshold fixed at the highest class";
    spec.policy = queueing::ThresholdPolicy::kFixedHighest;
    spec.clustering_name = "leach-rounds";
    spec.clustering = leach_rounds();
    spec.paper_protocol = true;
    add(std::move(spec));
  }
  // ---- extensions: pure registrations, zero core edits ----
  {
    // Scheme 2's gate + head-of-line deadline override (future-work
    // variant; the override lives in the MAC).
    ProtocolSpec spec;
    spec.name = "caem-deadline";
    spec.aliases = {"deadline"};
    spec.summary = "Scheme 2 + head-of-line deadline override of the CSI gate";
    spec.policy = queueing::ThresholdPolicy::kFixedHighest;
    spec.deadline_override = true;
    spec.clustering_name = "leach-rounds";
    spec.clustering = leach_rounds();
    add(std::move(spec));
  }
  {
    // The canonical LEACH comparison baseline (Heinzelman et al.).
    ProtocolSpec spec;
    spec.name = "direct";
    spec.aliases = {"direct-to-sink"};
    spec.summary = "every node uplinks straight to the base station; no clusters";
    spec.policy = queueing::ThresholdPolicy::kNone;
    spec.clustering = nullptr;  // clustering_label() derives "none"
    add(std::move(spec));
  }
  {
    // Clusters frozen after one election: isolates the cost (and the
    // repair value) of per-round re-election.
    ProtocolSpec spec;
    spec.name = "static-cluster";
    spec.aliases = {"static"};
    spec.summary = "clusters elected once at t=0, never re-elected";
    spec.policy = queueing::ThresholdPolicy::kNone;
    spec.clustering_name = "static-once";
    spec.clustering = static_once();
    add(std::move(spec));
  }
  {
    // Scheme 1's adaptive gate + the deadline override, completing the
    // (policy x deadline) extension matrix.
    ProtocolSpec spec;
    spec.name = "caem-adaptive-deadline";
    spec.aliases = {"adaptive-deadline"};
    spec.summary = "Scheme 1's adaptive threshold + head-of-line deadline override";
    spec.policy = queueing::ThresholdPolicy::kAdaptive;
    spec.deadline_override = true;
    spec.clustering_name = "leach-rounds";
    spec.clustering = leach_rounds();
    add(std::move(spec));
  }
}

namespace {

// Canonical names become cache entry filenames and artifact columns, so
// they must be path- and CSV-safe; aliases share the namespace, keep
// the same rule for both.
void validate_protocol_token(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("ProtocolRegistry: empty protocol name");
  for (const char c : token) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) {
      throw std::invalid_argument("ProtocolRegistry: protocol name '" + token +
                                  "' may only contain [A-Za-z0-9._-] (names become cache "
                                  "entry filenames)");
    }
  }
  if (token == "." || token == ".." || token == "all") {
    throw std::invalid_argument("ProtocolRegistry: protocol name '" + token + "' is reserved");
  }
}

}  // namespace

Protocol ProtocolRegistry::add(ProtocolSpec spec) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> keys;
  keys.reserve(spec.aliases.size() + 1);
  keys.push_back(spec.name);
  for (const std::string& alias : spec.aliases) keys.push_back(alias);
  for (const std::string& key : keys) {
    validate_protocol_token(key);
    if (impl_->by_name.count(key) != 0) {
      throw std::invalid_argument("ProtocolRegistry: protocol name '" + key +
                                  "' already registered");
    }
  }
  impl_->specs.push_back(std::move(spec));
  const ProtocolSpec* stored = &impl_->specs.back();
  for (const std::string& key : keys) impl_->by_name.emplace(key, stored);
  return Protocol(stored);
}

Protocol ProtocolRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->by_name.find(name);
  if (it == impl_->by_name.end()) {
    throw std::invalid_argument("unknown protocol '" + name +
                                "' (valid: " + impl_->valid_names_locked() + ")");
  }
  return Protocol(it->second);
}

std::vector<Protocol> ProtocolRegistry::all() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<Protocol> out;
  out.reserve(impl_->specs.size());
  for (const ProtocolSpec& spec : impl_->specs) out.push_back(Protocol(&spec));
  return out;
}

std::vector<Protocol> ProtocolRegistry::paper() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<Protocol> out;
  for (const ProtocolSpec& spec : impl_->specs) {
    if (spec.paper_protocol) out.push_back(Protocol(&spec));
  }
  return out;
}

Protocol::Protocol() : spec_(&ProtocolRegistry::instance().find("pure-leach").spec()) {}

std::vector<Protocol> paper_protocols() { return ProtocolRegistry::instance().paper(); }

std::vector<Protocol> registered_protocols() { return ProtocolRegistry::instance().all(); }

const char* to_string(Protocol protocol) noexcept { return protocol.name(); }

std::ostream& operator<<(std::ostream& os, Protocol protocol) { return os << protocol.name(); }

Protocol protocol_from_string(const std::string& name) {
  return ProtocolRegistry::instance().find(name);
}

}  // namespace caem::core
