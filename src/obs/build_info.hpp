#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace qulrb::obs {

/// Identity of this binary for fleet debugging: which code and which
/// compiler mode. Version and git sha are stamped by CMake at configure time.
struct BuildInfo {
  std::string version;     ///< project version, e.g. "1.0.0"
  std::string revision;    ///< short git sha, "unknown" outside a checkout
  std::string build_type;  ///< CMake build type, "unspecified" when empty
};

/// The stamped identity of this binary.
BuildInfo build_info();

/// Register the conventional `qulrb_build_info` gauge (value 1, identity in
/// the labels — the standard Prometheus build-info idiom) in `registry`.
/// `role` tags which fleet role exposes it ("serve", "router", "cli", ...);
/// the router's federated exposition relies on it to keep per-process
/// identities distinct after merging.
void register_build_info(MetricsRegistry& registry, const BuildInfo& info,
                         const std::string& role);

}  // namespace qulrb::obs
