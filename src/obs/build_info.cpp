#include "obs/build_info.hpp"

#ifndef QULRB_VERSION_STRING
#define QULRB_VERSION_STRING "0.0.0"
#endif
#ifndef QULRB_GIT_SHA
#define QULRB_GIT_SHA "unknown"
#endif
#ifndef QULRB_BUILD_TYPE
#define QULRB_BUILD_TYPE "unspecified"
#endif

namespace qulrb::obs {

BuildInfo build_info() {
  BuildInfo info;
  info.version = QULRB_VERSION_STRING;
  info.revision = QULRB_GIT_SHA;
  info.build_type = QULRB_BUILD_TYPE;
  if (info.build_type.empty()) info.build_type = "unspecified";
  return info;
}

void register_build_info(MetricsRegistry& registry, const BuildInfo& info,
                         const std::string& role) {
  MetricsRegistry::Labels labels{{"version", info.version},
                                 {"revision", info.revision},
                                 {"build", info.build_type},
                                 {"role", role}};
  registry
      .gauge("qulrb_build_info",
             "Build identity (value is always 1; the identity is the labels)",
             labels)
      .set(1.0);
}

}  // namespace qulrb::obs
