// bench_e2e — end-to-end benchmark driver: one named workload per process,
// closed loop, single-threaded. See README.md in this directory for the
// workloads, the metric catalog and how to read the traces.
//
//   bench_e2e --workload NAME --seed S --seconds T --trace 0|1 [--json PATH]
//       Run NAME for at least T seconds on inputs drawn from seed S. Prints
//       one `workload metric value unit` line per metric, then one JSON
//       line {"correct","attempted","failed","metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1 (which
//       also writes TRACE_e2e_NAME.json). --json writes the full record
//       (digest, build, sample counts) that --summarize reads.
//   bench_e2e --list
//   bench_e2e --summarize OUT [--commit C] RECORD.json...
//       Median and quartiles per (workload, metric) over several records.
//   bench_e2e --compare A.json,B.json [--benchmark BENCHMARK.json]
//       better / same / worse / unresolved per (workload, metric) of two
//       summaries, using the bounds in BENCHMARK.json; digests must match.
//
// Exit status: 0 success; 1 a failed output check, a digest mismatch or a
// worse metric; 2 a usage error or a refused build (no NDEBUG, sanitizer).
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "util/flags.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

using namespace eend;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

#ifndef EEND_E2E_BUILD_TYPE
#define EEND_E2E_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

int usage(const std::string& why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload NAME --seed S --seconds T "
               "--trace 0|1 [--json PATH]\n"
               "       bench_e2e --list\n"
               "       bench_e2e --summarize OUT [--commit C] RECORD.json...\n"
               "       bench_e2e --compare A.json,B.json "
               "[--benchmark BENCHMARK.json]\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

const e2e::Workload* find_workload(const std::string& name) {
  for (const e2e::Workload& w : e2e::workloads())
    if (name == w.name) return &w;
  return nullptr;
}

// ------------------------------------------------------------------ run ---

struct RunTally {
  std::vector<double> setup_s;
  std::vector<double> unit_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;
  e2e::Digest digest;  ///< over the prefix groups' digests
  double quality_sum = 0.0;
  std::size_t quality_units = 0;
  // Traced run only.
  std::map<std::string, e2e::SpanStat> spans;
  double twin_s = 0.0;    ///< set-up + units of the untraced executions
  double traced_s = 0.0;  ///< set-up + units of the traced executions
  obs::CounterSnapshot prefix_counters;
  obs::CounterSnapshot counters;
};

/// Installs the collector for one scope; the collector outlives it.
class ScopedTrace {
 public:
  explicit ScopedTrace(obs::TraceCollector* c) { obs::set_trace(c); }
  ~ScopedTrace() { obs::set_trace(nullptr); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

double group_seconds(const e2e::GroupResult& g) {
  double s = g.setup_s;
  for (const double u : g.unit_s) s += u;
  return s;
}

/// A group that throws counts as one failed unit; the run goes on.
e2e::GroupResult guarded(const e2e::Workload& w, std::uint64_t seed,
                         std::uint32_t tid, bool traced) {
  try {
    return w.run_group(seed, tid, traced);
  } catch (const std::exception& ex) {
    e2e::GroupResult g;
    g.attempted = 1;
    g.failed = 1;
    g.first_failure = std::string("threw: ") + ex.what();
    return g;
  }
}

/// Every group runs twice, in two passes over the same groups: the first
/// pass fills half the run, the second repeats it in order. On a shared
/// host, contention slows execution in episodes of seconds to minutes, and
/// the faster of two executions half a run apart is the program's own cost.
RunTally run_workload(const e2e::Workload& w, std::uint64_t seed,
                      double seconds, bool traced) {
  RunTally t;
  // Prefix groups count into their own registry: their counters depend on
  // the seed alone, however many groups the run fits.
  obs::CounterRegistry prefix_registry;
  obs::CounterRegistry rest_registry;
  obs::TraceCollector collector;
  const auto execute = [&](std::size_t gi, bool trace_this) {
    const std::uint64_t gseed = seed + gi;
    const auto tid = static_cast<std::uint32_t>(gi + 1);
    if (!trace_this) return guarded(w, gseed, tid, false);
    const ScopedTrace trace(&collector);
    const obs::ScopedRegistry scope(gi < w.prefix_groups ? &prefix_registry
                                                         : &rest_registry);
    return guarded(w, gseed, tid, true);
  };
  // The traced run traces one execution of each group, the first for odd
  // groups and the second for even ones, so warm caches favour neither;
  // the other execution is its untraced twin.
  const auto traced_first = [&](std::size_t gi) {
    return traced && gi % 2 == 1;
  };

  const obs::PhaseTimer clock("e2e.run");
  std::vector<e2e::GroupResult> first;
  while (first.size() < w.prefix_groups || clock.elapsed_s() < seconds / 2) {
    const std::size_t gi = first.size();
    first.push_back(execute(gi, traced_first(gi)));
  }

  for (std::size_t gi = 0; gi < first.size(); ++gi) {
    e2e::GroupResult& g = first[gi];
    const e2e::GroupResult again = execute(gi, traced && !traced_first(gi));
    if (traced) {
      const e2e::GroupResult& tr = traced_first(gi) ? g : again;
      t.traced_s += group_seconds(tr);
      t.twin_s += group_seconds(traced_first(gi) ? again : g);
      for (const auto& [name, st] : tr.spans) {
        t.spans[name].seconds += st.seconds;
        t.spans[name].calls += st.calls;
      }
    }
    g.failed = std::max(g.failed, again.failed);
    if (g.first_failure.empty()) g.first_failure = again.first_failure;
    if (g.digest != again.digest && g.failed == 0) {
      g.failed = 1;
      g.first_failure = "two executions of one input disagree (digest)";
    }
    g.setup_s = std::min(g.setup_s, again.setup_s);
    if (g.unit_s.size() == again.unit_s.size())
      for (std::size_t u = 0; u < g.unit_s.size(); ++u)
        g.unit_s[u] = std::min(g.unit_s[u], again.unit_s[u]);

    t.setup_s.push_back(g.setup_s);
    t.unit_s.insert(t.unit_s.end(), g.unit_s.begin(), g.unit_s.end());
    t.attempted += g.attempted;
    t.failed += g.failed;
    if (t.first_failure.empty()) t.first_failure = g.first_failure;
    if (gi < w.prefix_groups) {
      t.digest.add(g.digest);
      t.quality_sum += g.quality_sum;
      t.quality_units += g.attempted;
    }
  }
  t.prefix_counters = prefix_registry.snapshot();
  t.counters = t.prefix_counters;
  t.counters.merge_from(rest_registry.snapshot());

  if (traced) {
    const std::string path = std::string("TRACE_e2e_") + w.name + ".json";
    std::ofstream out(path, std::ios::binary);
    collector.write_json(out);
    if (!out) {
      ++t.failed;
      t.first_failure = "cannot write " + path;
    }
  }
  return t;
}

// -------------------------------------------------------------- metrics ---

struct Metric {
  Metric(std::string n, double v, std::string u, std::string nt = {})
      : name(std::move(n)), value(v), unit(std::move(u)), note(std::move(nt)) {}

  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< printed after the unit on the human line
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launcher's size never shows.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0.0;
}

std::vector<Metric> end_to_end_metrics(const RunTally& t) {
  double busy = 0.0;
  for (const double s : t.setup_s) busy += s;
  for (const double s : t.unit_s) busy += s;
  const std::string n = "n=" + std::to_string(t.unit_s.size());
  return {
      {"units_per_s", ratio(static_cast<double>(t.unit_s.size()), busy),
       "1/s", n},
      {"unit_ms_p50", 1e3 * percentile(t.unit_s, 0.5), "ms", n},
      {"unit_ms_p80", 1e3 * percentile(t.unit_s, 0.8), "ms", n},
      {"setup_s", percentile(t.setup_s, 0.5), "s",
       "n=" + std::to_string(t.setup_s.size())},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"quality", ratio(t.quality_sum, static_cast<double>(t.quality_units)),
       "ratio", "n=" + std::to_string(t.quality_units)},
  };
}

std::vector<Metric> per_layer_metrics(const RunTally& t) {
  const auto span_s = [&](const char* name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? 0.0 : it->second.seconds;
  };
  const auto calls = [&](const char* name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const auto count_in = [](const obs::CounterSnapshot& s, const char* name) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto count = [&](const char* name) {
    return count_in(t.prefix_counters, name);
  };
  const auto hist_mean = [&](const char* name) {
    const auto it = t.prefix_counters.histograms.find(name);
    return it == t.prefix_counters.histograms.end()
               ? 0.0
               : ratio(static_cast<double>(it->second.sum),
                       static_cast<double>(it->second.count));
  };
  const double work_s = span_s("e2e.setup") + span_s("e2e.unit");
  const auto pct = [&](const char* name) {
    return 100.0 * ratio(span_s(name), work_s);
  };
  const auto per_s = [&](const char* name) {
    return ratio(calls(name), span_s(name));
  };
  // Stage 3 of a warm repair solves Klein-Ravi once; the per-epoch probe
  // repeats that solve, so its time over the repair time estimates the
  // reference's share. Cold search times its Klein-Ravi call directly.
  const double kr_share =
      calls("opt.warm_start") > 0.0
          ? ratio(span_s("probe.core.klein_ravi"), span_s("opt.warm_start"))
          : ratio(span_s("core.klein_ravi"), span_s("e2e.unit"));
  const double search_evals = count_in(t.counters, "opt.ls.evaluations") +
                              count_in(t.counters, "opt.sa.proposals") +
                              count_in(t.counters, "opt.warm.evaluations");

  return {
      {"e2e.units", calls("e2e.unit"), "count"},
      {"e2e.work_s", work_s, "s"},
      {"trace_overhead_pct", 100.0 * ratio(t.traced_s - t.twin_s, t.twin_s),
       "%"},
      {"net.build_pct", pct("net.build"), "%"},
      {"net.run_pct", pct("net.run"), "%"},
      {"net.channel_transmissions", count("net.channel_transmissions"),
       "count"},
      {"sim.events_fired", count("sim.events_fired"), "count"},
      {"sim.events_per_s",
       ratio(count_in(t.counters, "sim.events_fired"), span_s("net.run")),
       "1/s"},
      {"sim.cancel_ratio",
       ratio(count("sim.events_cancelled"), count("sim.events_scheduled")),
       "ratio"},
      {"sim.closure_pool_spills", count("sim.closure_pool_spills"), "count"},
      {"sim.slot_high_water", hist_mean("sim.slot_high_water"), "count"},
      {"pool.reuse_ratio",
       ratio(count("pool.reuse_hits"),
             count("pool.reuse_hits") + count("pool.fresh_blocks")),
       "ratio"},
      {"mac.collisions_per_tx",
       ratio(count("mac.collisions"), count("net.channel_transmissions")),
       "ratio"},
      {"mac.stale_bcast_drops", count("mac.stale_bcast_drops"), "count"},
      {"mac.queue_drops", count("mac.queue_drops"), "count"},
      {"mac.unicast_failures", count("mac.unicast_failures"), "count"},
      {"routing.rreq_transmissions", count("routing.rreq_transmissions"),
       "count"},
      {"routing.update_transmissions", count("routing.update_transmissions"),
       "count"},
      {"core.klein_ravi_pct", pct("core.klein_ravi"), "%"},
      {"core.klein_ravi_per_s",
       ratio(calls("core.klein_ravi") + calls("probe.core.klein_ravi"),
             span_s("core.klein_ravi") + span_s("probe.core.klein_ravi")),
       "1/s"},
      {"core.klein_ravi_share", kr_share, "ratio"},
      {"opt.instance_pct", pct("opt.instance"), "%"},
      {"opt.portfolio_pct", pct("opt.portfolio"), "%"},
      {"opt.warm_start_pct", pct("opt.warm_start"), "%"},
      {"opt.evals_per_s",
       ratio(search_evals, span_s("opt.portfolio") + span_s("opt.warm_start")),
       "1/s"},
      {"opt.evaluate_per_s", per_s("probe.opt.evaluate"), "1/s"},
      {"opt.ls.evaluations", count("opt.ls.evaluations"), "count"},
      {"opt.ls.moves_accepted", count("opt.ls.moves_accepted"), "count"},
      {"opt.sa.proposals", count("opt.sa.proposals"), "count"},
      {"opt.sa.accept_ratio",
       ratio(count("opt.sa.accepted"), count("opt.sa.proposals")), "ratio"},
      {"opt.cache.hit_ratio",
       ratio(count("opt.cache.route_hits"),
             count("opt.cache.route_hits") + count("opt.cache.route_misses")),
       "ratio"},
      {"opt.warm.evaluations", count("opt.warm.evaluations"), "count"},
      {"opt.warm.fallbacks", count("opt.warm.fallbacks"), "count"},
      {"opt.warm.repair_region_mean", hist_mean("opt.warm.repair_region_size"),
       "count"},
      {"graph.dijkstra_per_s", per_s("probe.graph.dijkstra"), "1/s"},
      {"churn.state_pct", pct("churn.state"), "%"},
      {"churn.advance_pct", pct("churn.advance"), "%"},
      {"churn.events_applied", count("churn.events_applied"), "count"},
      {"churn.events_redrawn", count("churn.events_redrawn"), "count"},
  };
}

json::Value metrics_json(const std::vector<Metric>& ms) {
  json::Object o;
  for (const Metric& m : ms)
    o.emplace_back(m.name, json::Object{{"value", json::Value(m.value)},
                                        {"unit", json::Value(m.unit)}});
  return o;
}

int run_mode(const Flags& flags) {
  const std::string name = flags.get("workload", "");
  const e2e::Workload* w = find_workload(name);
  if (w == nullptr) return usage("unknown workload '" + name + "'");
  std::uint64_t seed = 0, seconds = 0;
  if (!parse_u64(flags.get("seed", "1"), seed))
    return usage("--seed takes a non-negative integer");
  if (!parse_u64(flags.get("seconds", "30"), seconds) || seconds == 0 ||
      seconds > 3600)
    return usage("--seconds takes an integer in [1, 3600]");
  const std::string trace_arg = flags.get("trace", "0");
  if (trace_arg != "0" && trace_arg != "1")
    return usage("--trace takes 0 or 1");
  const bool traced = trace_arg == "1";
  if (traced && !obs::kEnabled)
    return usage("--trace 1 needs telemetry compiled in (EEND_OBS=ON)");

  const RunTally t =
      run_workload(*w, seed, static_cast<double>(seconds), traced);
  const std::vector<Metric> metrics =
      traced ? per_layer_metrics(t) : end_to_end_metrics(t);
  const std::string digest = e2e::hex64(t.digest.value());
  const bool correct = t.failed == 0;

  for (const Metric& m : metrics) {
    std::cout << name << ' ' << m.name << ' ' << format_double(m.value)
              << ' ' << m.unit;
    if (!m.note.empty()) std::cout << " (" << m.note << ')';
    std::cout << '\n';
  }
  std::cout << name << " digest " << digest << " hex\n";
  if (!correct)
    std::cerr << "bench_e2e: " << name << ": " << t.failed << " of "
              << t.attempted << " units failed; first: " << t.first_failure
              << "\n";

  const std::string json_path = flags.get("json", "");
  if (!json_path.empty()) {
    const json::Object record{
        {"workload", json::Value(name)},
        {"seed", json::Value(format_u64(seed))},
        {"seconds", json::Value(static_cast<double>(seconds))},
        {"trace", json::Value(traced)},
        {"digest", json::Value(digest)},
        {"prefix_groups", json::Value(static_cast<double>(w->prefix_groups))},
        {"correct", json::Value(correct)},
        {"attempted", json::Value(static_cast<double>(t.attempted))},
        {"failed", json::Value(static_cast<double>(t.failed))},
        {"first_failure", json::Value(t.first_failure)},
        {"obs_enabled", json::Value(obs::kEnabled)},
        {"compiler", json::Value(kCompiler)},
        {"build_type", json::Value(EEND_E2E_BUILD_TYPE)},
        {"metrics", metrics_json(metrics)}};
    std::ofstream out(json_path, std::ios::binary);
    out << json::dump(json::Value(record), 2) << "\n";
    if (!out) {
      std::cerr << "bench_e2e: cannot write " << json_path << "\n";
      return 1;
    }
  }

  const json::Object line{
      {"correct", json::Value(correct)},
      {"attempted", json::Value(static_cast<double>(t.attempted))},
      {"failed", json::Value(static_cast<double>(t.failed))},
      {"metrics", metrics_json(metrics)}};
  std::cout << json::dump(json::Value(line)) << std::endl;
  return correct ? 0 : 1;
}

// ------------------------------------------------- summarize / compare ---

json::Value read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EEND_REQUIRE_MSG(in, "cannot read " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return json::parse(buf.str());
}

const json::Value& member(const json::Value& v, const std::string& key) {
  const json::Value* m = v.find(key);
  EEND_REQUIRE_MSG(m != nullptr, "missing key \"" << key << "\"");
  return *m;
}

/// Quartiles as Python's statistics.quantiles(xs, n=4) gives them (the
/// default "exclusive" method), so the summary matches the usual tooling.
std::vector<double> quartiles(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n < 2) return {xs[0], xs[0], xs[0]};
  std::vector<double> q;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * (n + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * (n + 1)) - static_cast<double>(j * 4);
    q.push_back((xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0);
  }
  return q;
}

int summarize_mode(const Flags& flags) {
  const std::string out_path = flags.get("summarize", "");
  const std::vector<std::string>& inputs = flags.positional();
  if (out_path.empty() || out_path == "true" || inputs.empty())
    return usage("--summarize needs an output path and record files");

  std::vector<json::Value> records;
  for (const std::string& p : inputs) records.push_back(read_json(p));
  const json::Value& first = records.front();
  int status = 0;

  json::Object workloads;
  for (const e2e::Workload& w : e2e::workloads()) {
    std::vector<const json::Value*> mine;
    for (const json::Value& r : records)
      if (member(r, "workload").as_string() == w.name) mine.push_back(&r);
    if (mine.empty()) continue;
    const json::Value& r0 = *mine.front();
    bool correct = true;
    double attempted = 0.0, failed = 0.0;
    // Ordered by first appearance, as the records list them.
    struct Series {
      std::string name, unit;
      std::vector<double> values;
    };
    std::vector<Series> series;
    for (const json::Value* r : mine) {
      if (member(*r, "seed").as_string() == member(r0, "seed").as_string() &&
          member(*r, "digest").as_string() !=
              member(r0, "digest").as_string()) {
        std::cerr << "bench_e2e: " << w.name
                  << ": digest differs between runs of one seed\n";
        status = 1;
      }
      correct = correct && member(*r, "correct").as_bool();
      attempted += member(*r, "attempted").as_number();
      failed += member(*r, "failed").as_number();
      for (const auto& [name, mv] : member(*r, "metrics").as_object()) {
        auto it = std::find_if(series.begin(), series.end(),
                               [&](const Series& e) { return e.name == name; });
        if (it == series.end())
          it = series.insert(series.end(),
                             {name, member(mv, "unit").as_string(), {}});
        it->values.push_back(member(mv, "value").as_number());
      }
    }
    json::Object metrics;
    for (const Series& s : series) {
      const std::vector<double> q = quartiles(s.values);
      json::Array raw(s.values.begin(), s.values.end());
      metrics.emplace_back(
          s.name, json::Object{{"unit", json::Value(s.unit)},
                               {"median", json::Value(q[1])},
                               {"q1", json::Value(q[0])},
                               {"q3", json::Value(q[2])},
                               {"values", json::Value(std::move(raw))}});
    }
    workloads.emplace_back(
        w.name,
        json::Object{{"seed", member(r0, "seed")},
                     {"runs", json::Value(static_cast<double>(mine.size()))},
                     {"digest", member(r0, "digest")},
                     {"correct", json::Value(correct)},
                     {"attempted", json::Value(attempted)},
                     {"failed", json::Value(failed)},
                     {"metrics", json::Value(std::move(metrics))}});
  }

  const json::Object doc{
      {"bench", json::Value("e2e")},
      {"commit", json::Value(flags.get("commit", "unknown"))},
      {"nproc",
       json::Value(static_cast<double>(std::thread::hardware_concurrency()))},
      {"jobs", json::Value(1)},
      {"obs_enabled", member(first, "obs_enabled")},
      {"compiler", member(first, "compiler")},
      {"build_type", member(first, "build_type")},
      {"trace", member(first, "trace")},
      {"seconds", member(first, "seconds")},
      {"workloads", json::Value(std::move(workloads))}};
  std::ofstream out(out_path, std::ios::binary);
  out << json::dump(json::Value(doc), 2) << "\n";
  if (!out) {
    std::cerr << "bench_e2e: cannot write " << out_path << "\n";
    return 1;
  }
  return status;
}

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

std::string verdict(const json::Value& a, const json::Value& b,
                    const Bound& bd) {
  const double am = member(a, "median").as_number();
  const double bm = member(b, "median").as_number();
  const double sign = bd.lower_is_better ? 1.0 : -1.0;
  const double worse = sign * ratio(bm - am, am);  // > 0: B is worse
  const double spread = std::max(
      ratio(member(a, "q3").as_number() - member(a, "q1").as_number(), am),
      ratio(member(b, "q3").as_number() - member(b, "q1").as_number(), bm));
  if (spread > bd.bound) {
    // Too noisy to resolve the bound, unless the runs do not overlap.
    const auto range = [](const json::Value& m) {
      std::vector<double> xs;
      for (const json::Value& x : member(m, "values").as_array())
        xs.push_back(x.as_number());
      const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
      return std::pair{*lo, *hi};
    };
    const auto [a_lo, a_hi] = range(a);
    const auto [b_lo, b_hi] = range(b);
    const bool b_below = b_hi < a_lo, b_above = b_lo > a_hi;
    if (bd.lower_is_better ? b_below : b_above) return "better";
    if ((bd.lower_is_better ? b_above : b_below) && worse > bd.bound)
      return "worse";
    return "unresolved";
  }
  if (worse > bd.bound) return "worse";
  if (-worse > bd.bound) return "better";
  return "same";
}

int compare_mode(const Flags& flags) {
  const std::string arg = flags.get("compare", "");
  const std::size_t comma = arg.find(',');
  if (comma == std::string::npos)
    return usage("--compare takes A.json,B.json");
  const json::Value a = read_json(arg.substr(0, comma));
  const json::Value b = read_json(arg.substr(comma + 1));
  const json::Value bench =
      read_json(flags.get("benchmark", "BENCHMARK.json"));
  std::vector<Bound> bounds;
  for (const json::Value& m : member(bench, "end_to_end").as_array())
    bounds.push_back({member(m, "name").as_string(),
                      member(m, "better").as_string() == "lower",
                      member(m, "bound").as_number()});

  int status = 0;
  for (const auto& [wname, aw] : member(a, "workloads").as_object()) {
    const json::Value* bw = member(b, "workloads").find(wname);
    if (bw == nullptr) continue;
    if (member(aw, "seed").as_string() == member(*bw, "seed").as_string() &&
        member(aw, "digest").as_string() !=
            member(*bw, "digest").as_string()) {
      std::cout << wname << " digest " << member(aw, "digest").as_string()
                << " " << member(*bw, "digest").as_string() << " mismatch\n";
      status = 1;
    }
    for (const Bound& bd : bounds) {
      const json::Value* am = member(aw, "metrics").find(bd.name);
      const json::Value* bm = member(*bw, "metrics").find(bd.name);
      if (am == nullptr || bm == nullptr) continue;
      const std::string v = verdict(*am, *bm, bd);
      const double a_med = member(*am, "median").as_number();
      const double b_med = member(*bm, "median").as_number();
      std::cout << wname << ' ' << bd.name << ' ' << format_double(a_med)
                << " -> " << format_double(b_med) << ' '
                << member(*am, "unit").as_string() << ' '
                << Table::num(100.0 * ratio(b_med - a_med, a_med), 2)
                << "% (bound " << Table::num(100.0 * bd.bound, 1) << "%) "
                << v << '\n';
      if (v == "worse") status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("list")) {
    for (const e2e::Workload& w : e2e::workloads()) std::cout << w.name << "\n";
    return 0;
  }
  if (!kAssertsOff)
    return usage(
        "refusing to measure a build without NDEBUG (Debug build?); "
        "configure with -DCMAKE_BUILD_TYPE=Release");
  if (kSanitized)
    return usage("refusing to measure a sanitizer build");
  try {
    if (flags.has("compare")) return compare_mode(flags);
    if (flags.has("summarize")) return summarize_mode(flags);
    if (flags.has("workload")) return run_mode(flags);
  } catch (const std::exception& ex) {
    std::cerr << "bench_e2e: " << ex.what() << "\n";
    return 2;
  }
  return usage("nothing to do");
}
