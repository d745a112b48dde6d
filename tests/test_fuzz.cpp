// Deterministic mutation fuzzing of the decoders of untrusted input: the two
// parsers that read request lines, io::JsonValue::parse and
// service::parse_request_line; the router's top-level key scanner,
// router::find_top_level_value; the router's decode of a backend's obs
// snapshot, router::Federation::update and the scrape that folds it; and the
// CLI's input-file reader, io::read_csv and io::from_input_table. Seeds are
// inputs the tests and tools already produce; each case applies a few random
// byte-level and token-level mutations under a fixed seed, so a failure
// reproduces exactly. Every input must either parse or throw
// util::InvalidArgument; any other exception fails the test, and a crash or
// memory error fails it under the sanitizer builds.

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/json_value.hpp"
#include "io/lrp_io.hpp"
#include "obs/build_info.hpp"
#include "obs/histogram_wire.hpp"
#include "obs/metrics.hpp"
#include "router/coalesce.hpp"
#include "router/federation.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace qulrb {
namespace {

constexpr std::size_t kIterations = 20000;

const std::vector<std::string>& request_lines() {
  static const std::vector<std::string> lines = {
      R"({"op":"solve","id":1,"loads":[10,2,2,2],"counts":[8,8,8,8],"k":6,"sweeps":300,"restarts":1})",
      R"({"op":"solve","id":1,"loads":[30,4,4,4,4,4,4,4],"counts":[16,16,16,16,16,16,16,16],"k":8,"sweeps":300,"restarts":2,"seed":7,"target_rimb":1.2,"simulate":true,"sim_iterations":3})",
      R"({"op":"solve","id":9,"loads":[30,4,4,4],"counts":[8,8,8,8],"k":4,"sweeps":200,"seed":3})",
      R"({"op":"solve","id":3,"loads":[20,2,2,2],"counts":[8,8,8,8],"k":4,"sweeps":200,"restarts":1,"seed":3})",
      R"({"op":"solve","id":2,"loads":[30,4,4,4],"counts":[8,8,8,8],"k":4,"sweeps":300,"restarts":1,"seed":7,"simulate":true,"sim_iterations":2})",
      R"({"op":"solve","id":7,"loads":[10,2,2,2],"counts":[8,8,8,8],"variant":"qcqm2","k":4,"priority":2,"deadline_ms":50,"sweeps":400,"restarts":2,"seed":9,"time_limit_ms":25,"target_rimb":1.25,"simulate":true,"sim_iterations":5,"rid":77,"router_ms":0.25,"plan":true})",
      R"({"loads":[3,1],"counts":[4,4]})",
      R"({"op":"cancel","id":3})",
      R"({"op":"stats"})",
      R"({"op":"health"})",
      R"({"op":"metrics"})",
      R"({"op":"trace","n":2})",
      R"({"op":"obs"})",
      R"({"op":"flight_dump","id":5,"window_s":30,"rid":42})",
      R"({"op":"profile","id":3,"seconds":2.5})",
      R"({"op":"shutdown"})",
  };
  return lines;
}

/// Obs snapshots as a backend sends them: a registry with every metric kind,
/// a non-default histogram layout and per-process gauges, at the top level
/// and nested under "registry" as the serve shell does; and an empty one.
const std::vector<std::string>& obs_snapshots() {
  static const std::vector<std::string> docs = [] {
    obs::MetricsRegistry registry;
    registry.counter("qulrb_service_requests_total", "Requests", "outcome=\"ok\"").inc(3);
    registry.gauge("qulrb_service_queue_depth", "Depth").set(2.5);
    registry.gauge("qulrb_process_open_fds", "Fds").set(9.0);
    obs::register_build_info(registry, obs::build_info(), "serve");
    auto& latency = registry.histogram("qulrb_service_request_ms", "Latency");
    for (const double v : {0.5, 4.0, 64.0, 1e9}) latency.observe(v);
    obs::HistogramLayout narrow;
    narrow.lo = 0.5;
    narrow.buckets = 12;
    narrow.buckets_per_octave = 1.0;
    registry.histogram("qulrb_x_ms", "X", "", narrow).observe(2.0);
    const auto serialize = [](const obs::MetricsRegistry& r) {
      io::JsonWriter w;
      obs::write_registry_obs_json(r, w);
      return w.str();
    };
    const std::string full = serialize(registry);
    return std::vector<std::string>{
        full, R"({"role":"serve","registry":)" + full + "}",
        serialize(obs::MetricsRegistry())};
  }();
  return docs;
}

/// Input tables as the CLI writes them (`qulrb gen`), one per shape.
const std::vector<std::string>& input_tables() {
  static const std::vector<std::string> tables = [] {
    std::vector<std::string> out;
    for (const lrp::LrpProblem& problem :
         {lrp::LrpProblem({10.0, 2.0, 2.0, 2.0}, {8, 8, 8, 8}),
          lrp::LrpProblem({3.25}, {5}),
          lrp::LrpProblem({1.5, 0.0, 7.125, 2.0, 4.0, 0.5}, {3, 0, 12, 1, 40, 9})}) {
      std::ostringstream csv;
      io::write_csv(csv, io::to_input_table(problem));
      out.push_back(csv.str());
    }
    return out;
  }();
  return tables;
}

/// Fragments a mutation splices in: JSON structure, escapes, numbers at the
/// edges of double and int64, and the keys and values of the request
/// protocol and the obs wire form.
const std::vector<std::string>& tokens() {
  static const std::vector<std::string> words = {
      "{", "}", "[", "]", "\"", ",", ":", "\\", "null", "true", "false", "-",
      "-0", "0.5", "1e308", "-1e308", "1e999", "4.9e-324", "9007199254740993",
      "9223372036854775807", "9223372036854775808", "-9223372036854775809",
      "1e19", "-1", "\\u0000", "\\ud800", "\\uffff", "\\\"", "\"op\"",
      "\"solve\"", "\"cancel\"", "\"trace\"", "\"profile\"", "\"loads\"",
      "\"counts\"", "\"k\"", "\"id\"", "\"rid\"", "\"n\"", "\"sweeps\"",
      "\"restarts\"", "\"variant\"", "\"qcqm2\"", "\"seconds\"",
      "\"sim_iterations\"", "\"sim_threads\"", "\"priority\"", "\"layout\"",
      "\"buckets\"", "\"per_octave\"", "\"value\"", "\"registry\"", "[]", "{}",
      "\"\"", std::string(1, '\0'), "\x7f", "\xff", "\t", "\r", "\n"};
  return words;
}

std::string repeat(const std::string& piece, std::size_t n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += piece;
  return out;
}

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.next_below(n));
}

void mutate_once(util::Rng& rng, const std::vector<std::string>& corpus,
                 std::string& s) {
  const std::size_t pos = pick(rng, s.size() + 1);
  switch (pick(rng, 8)) {
    case 0:  // flip one bit
      if (!s.empty()) s[pick(rng, s.size())] ^= static_cast<char>(1u << pick(rng, 8));
      break;
    case 1:  // overwrite one byte
      if (!s.empty()) s[pick(rng, s.size())] = static_cast<char>(rng.next_below(256));
      break;
    case 2:  // insert a token
      s.insert(pos, tokens()[pick(rng, tokens().size())]);
      break;
    case 3:  // delete a range
      s.erase(pos, pick(rng, 16));
      break;
    case 4: {  // duplicate a range
      const std::string piece = s.substr(pos, pick(rng, 32));
      s.insert(pick(rng, s.size() + 1), piece);
      break;
    }
    case 5:  // truncate
      s.resize(pos);
      break;
    case 6: {  // splice the tail of another seed
      const std::string& other = corpus[pick(rng, corpus.size())];
      s = s.substr(0, pos) + other.substr(pick(rng, other.size() + 1));
      break;
    }
    default: {  // nest deeply
      const std::size_t depth = 1 + pick(rng, rng.next_bool(0.05) ? 100000 : 300);
      const bool array = rng.next_bool(0.5);
      s = (array ? std::string(depth, '[') : repeat("{\"a\":", depth)) + s +
          std::string(depth, array ? ']' : '}');
      break;
    }
  }
}

template <typename Parse>
void fuzz(std::uint64_t seed, const std::vector<std::string>& corpus, Parse parse) {
  util::Rng rng(seed);
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    std::string input = corpus[pick(rng, corpus.size())];
    const std::size_t rounds = 1 + pick(rng, 4);
    for (std::size_t r = 0; r < rounds; ++r) mutate_once(rng, corpus, input);
    try {
      parse(input);
      ++parsed;
    } catch (const util::InvalidArgument&) {
      // the documented rejection
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << " threw " << e.what() << " on: "
                    << input.substr(0, 200);
    }
  }
  // Mutations keep some inputs valid, so the accept path is fuzzed too.
  EXPECT_GT(parsed, kIterations / 100);
}

TEST(Fuzz, JsonValueParse) {
  fuzz(0x5eed0001, request_lines(),
       [](const std::string& line) { (void)io::JsonValue::parse(line); });
}

TEST(Fuzz, ParseRequestLine) {
  fuzz(0x5eed0002, request_lines(),
       [](const std::string& line) { (void)service::parse_request_line(line); });
}

// On any line the scanner's span stays inside the line; on a line that parses,
// every span it returns is itself one complete JSON value.
TEST(Fuzz, TopLevelValueSpan) {
  fuzz(0x5eed0003, request_lines(), [](const std::string& line) {
    std::vector<router::ValueSpan> spans;
    for (const char* key : {"id", "op", "loads", "k", "rid"}) {
      const router::ValueSpan span = router::find_top_level_value(line, key);
      if (span.pos == std::string_view::npos) continue;
      ASSERT_LE(span.pos + span.len, line.size()) << line.substr(0, 200);
      spans.push_back(span);
    }
    (void)io::JsonValue::parse(line);  // malformed lines stop here
    for (const router::ValueSpan& span : spans) {
      EXPECT_NO_THROW((void)io::JsonValue::parse(line.substr(span.pos, span.len)))
          << line.substr(0, 200);
    }
  });
}

// A backend's obs reply is decoded, then folded into the fleet exposition,
// which allocates from the decoded layouts.
TEST(Fuzz, FederationUpdate) {
  fuzz(0x5eed0004, obs_snapshots(), [](const std::string& text) {
    const io::JsonValue doc = io::JsonValue::parse(text);
    router::Federation federation(1);
    (void)federation.update(0, "127.0.0.1:7471", text, doc, 0.0);
    (void)federation.fleet_prometheus();
  });
}

TEST(Fuzz, InputTable) {
  fuzz(0x5eed0005, input_tables(), [](const std::string& text) {
    std::istringstream in(text);
    (void)io::from_input_table(io::read_csv(in));
  });
}

}  // namespace
}  // namespace qulrb
