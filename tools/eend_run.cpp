// eend_run — manifest-driven experiment runner.
//
// Replaces per-bench main() boilerplate: a manifest file describes the
// experiment cells (stacks × rates/densities, runs, seeds), and this driver
// streams them through core::ExperimentEngine, emitting
//
//   * pretty pivot tables on stdout (one per experiment × metric),
//   * long-format CSV, and
//   * JSON-lines (one object per cell — the golden-file format).
//
// Output is byte-identical for every --jobs value; see
// core/experiment_engine.hpp for the determinism contract.
//
//   eend_run --manifest examples/manifests/fig7_small.json --jobs=0
//   eend_run --manifest m.json --quick --only=fig8 --jsonl=- --no-table
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment_engine.hpp"
#include "core/manifest.hpp"
#include "core/result_sink.hpp"
#include "obs/trace.hpp"
#include "util/flags.hpp"

namespace {

constexpr const char* kUsage = R"(usage: eend_run --manifest=FILE [options]

options:
  --manifest=FILE   manifest to execute (also accepted as a positional arg)
  --jobs=N          worker threads (1 = serial, 0 = one per hardware thread);
                    results are byte-identical for every value
  --quick           reduced scale: each experiment's "quick" block, or
                    1 run / 120 s simulations by default
  --runs=N          override every experiment's replication count
  --seed=S          override every experiment's base seed
  --only=ID[,ID]    run only the named experiments, in manifest order
  --csv=PATH        CSV destination: a path, '-' for stdout, 'none' to skip
                    (default: <name>.csv in the current directory)
  --jsonl=PATH      JSON-lines destination, same conventions
                    (default: <name>.jsonl)
  --counters=PATH   telemetry counters as JSON-lines, one object per counter
                    or histogram per experiment; byte-identical for every
                    --jobs value (default: not written)
  --trace=PATH      Chrome trace_event JSON covering engine phases, worker
                    spans and sampled sim batches — open in chrome://tracing
                    or ui.perfetto.dev (default: not written)
  --no-table        suppress the pretty tables on stdout (implied when a
                    machine sink writes to '-')
  --list            list the manifest's experiments and exit
  --print-manifest  echo the canonical serialized manifest and exit
  --quiet           suppress progress lines on stderr
  --help            this text
)";

const std::vector<std::string> kKnownFlags = {
    "manifest", "jobs", "quick", "runs", "seed", "only", "csv", "jsonl",
    "counters", "trace", "no-table", "list", "print-manifest", "quiet",
    "help"};

/// Strict integer flag parsing: Flags::get_int uses strtoll, which stops at
/// the first non-digit — "--seed=1e6" would silently read as 1 and the
/// whole sweep would run under the wrong seed. Rejects trailing garbage;
/// diagnostics are the caller's job (one message per problem).
bool parse_int_flag(const eend::Flags& flags, const char* name,
                    std::int64_t& out) {
  const std::string v = flags.get(name, "");
  const char* first = v.data();
  const char* last = v.data() + v.size();
  const auto r = std::from_chars(first, last, out);
  return r.ec == std::errc{} && r.ptr == last && !v.empty();
}

std::vector<std::string> split_csv_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    if (next > pos) out.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eend;
  const Flags flags(argc, argv);

  if (flags.get_bool("help", false)) {
    std::cout << kUsage;
    return 0;
  }

  // A typo'd flag silently falling back to its default would invalidate a
  // whole sweep; reject anything unknown up front.
  for (const std::string& key : flags.keys()) {
    bool known = false;
    for (const auto& k : kKnownFlags) known = known || k == key;
    if (!known) {
      std::cerr << "eend_run: unknown flag --" << key << "\n" << kUsage;
      return 2;
    }
  }
  // Flags binds "--quick path" as quick="path" (the --key value form), so a
  // boolean flag written before the positional manifest path would swallow
  // it and silently read as false. Catch non-boolean values early.
  for (const char* b : {"quick", "quiet", "no-table", "list",
                        "print-manifest", "help"}) {
    const std::string v = flags.get(b, "true");
    if (v != "true" && v != "false" && v != "1" && v != "0" && v != "yes" &&
        v != "no") {
      std::cerr << "eend_run: --" << b << " takes no value but got \"" << v
                << "\" — put the manifest path before boolean flags or use "
                   "--manifest=PATH\n";
      return 2;
    }
  }
  // The converse: a bare value-taking flag binds the string "true" and
  // would be used verbatim (e.g. a CSV file literally named "true").
  for (const char* f :
       {"manifest", "csv", "jsonl", "only", "counters", "trace"}) {
    if (flags.has(f) && flags.get(f, "") == "true") {
      std::cerr << "eend_run: --" << f << " needs a value (--" << f
                << "=...)\n";
      return 2;
    }
  }

  std::string path = flags.get("manifest", "");
  if (path.empty() && !flags.positional().empty())
    path = flags.positional().front();
  if (path.empty()) {
    std::cerr << "eend_run: no manifest given\n" << kUsage;
    return 2;
  }

  core::Manifest manifest;
  try {
    manifest = core::Manifest::load(path);
  } catch (const CheckError& e) {
    std::cerr << "eend_run: " << e.what() << "\n";
    return 2;
  }

  // --only narrows the manifest before anything consumes it, so --list and
  // --print-manifest show the filtered view and a typo'd id always errors.
  if (flags.has("only")) {
    const auto wanted = split_csv_list(flags.get("only", ""));
    if (wanted.empty()) {
      // Running zero experiments "successfully" would truncate the output
      // files — a mis-expanded $IDS in CI must fail loudly instead.
      std::cerr << "eend_run: --only selected no experiments\n";
      return 2;
    }
    for (std::size_t i = 0; i < wanted.size(); ++i)
      for (std::size_t j = i + 1; j < wanted.size(); ++j)
        if (wanted[i] == wanted[j]) {
          std::cerr << "eend_run: --only names \"" << wanted[i]
                    << "\" twice\n";
          return 2;
        }
    for (const auto& id : wanted) {
      bool found = false;
      for (const auto& e : manifest.experiments) found |= e.id == id;
      if (!found) {
        std::cerr << "eend_run: --only names unknown experiment \"" << id
                  << "\" (manifest has:";
        for (const auto& e : manifest.experiments)
          std::cerr << " " << e.id;
        std::cerr << ")\n";
        return 2;
      }
    }
    // Keep the selected experiments in manifest order (as documented), so a
    // filtered run's rows are a subsequence of the unfiltered run's.
    core::Manifest filtered = manifest;
    filtered.experiments.clear();
    for (const auto& e : manifest.experiments) {
      bool keep = false;
      for (const auto& id : wanted) keep |= e.id == id;
      if (keep) filtered.experiments.push_back(e);
    }
    manifest = std::move(filtered);
  }

  if (flags.get_bool("list", false)) {
    for (const auto& line : manifest.experiment_summaries())
      std::cout << line << "\n";
    return 0;
  }
  if (flags.get_bool("print-manifest", false)) {
    std::cout << manifest.serialize() << "\n";
    return 0;
  }

  const bool quiet = flags.get_bool("quiet", false);
  core::EngineOptions opts;
  opts.quick = flags.get_bool("quick", false);
  if (flags.has("jobs")) {
    std::int64_t jobs = 0;
    if (!parse_int_flag(flags, "jobs", jobs) || jobs < 0) {
      std::cerr << "eend_run: --jobs must be an integer >= 0 (0 = auto), "
                   "got \"" << flags.get("jobs", "") << "\"\n";
      return 2;
    }
    opts.jobs = static_cast<std::size_t>(jobs);
  }
  if (flags.has("runs")) {
    std::int64_t runs = 0;
    if (!parse_int_flag(flags, "runs", runs) || runs < 1) {
      std::cerr << "eend_run: --runs must be an integer >= 1, got \""
                << flags.get("runs", "") << "\"\n";
      return 2;
    }
    // Grid and mopt kinds have no replication count; accepting the flag
    // for a manifest that selects only those would silently change nothing.
    bool applies = false;
    for (const auto& e : manifest.experiments)
      applies |= e.kind == core::ExperimentKind::Sweep ||
                 e.kind == core::ExperimentKind::Density ||
                 e.kind == core::ExperimentKind::Design ||
                 e.kind == core::ExperimentKind::Replay ||
                 e.kind == core::ExperimentKind::Churn;
    if (!applies) {
      std::cerr << "eend_run: --runs has no effect — none of the selected "
                   "experiments are sweep, density, design, replay or "
                   "churn kind\n";
      return 2;
    }
    opts.runs_override = static_cast<std::size_t>(runs);
  }
  if (flags.has("seed")) {
    std::int64_t seed = 0;
    // Same cap the manifest format enforces: seeds must survive the JSON
    // number (double) round-trip so CSV and JSON-lines stay in agreement.
    if (!parse_int_flag(flags, "seed", seed) || seed < 0 ||
        seed > (std::int64_t{1} << 53)) {
      std::cerr << "eend_run: --seed must be an integer in [0, 2^53], got \""
                << flags.get("seed", "") << "\"\n";
      return 2;
    }
    // Only mopt (a closed-form model) has no seed; reject the flag when it
    // cannot change anything, like --runs above.
    bool applies = false;
    for (const auto& e : manifest.experiments)
      applies |= e.kind != core::ExperimentKind::Mopt;
    if (!applies) {
      std::cerr << "eend_run: --seed has no effect — all selected "
                   "experiments are the analytic mopt kind\n";
      return 2;
    }
    opts.seed_override = static_cast<std::uint64_t>(seed);
  }
  opts.progress = quiet ? nullptr : &std::cerr;

  // Sink wiring. Files are written to "<dest>.tmp" and renamed into place
  // only after every sink finished cleanly, so a failed run (bad second
  // destination, engine exception, ENOSPC) never destroys the previous
  // results — including goldens regenerated per the README recipe.
  struct OwnedFile {
    std::unique_ptr<std::ofstream> stream;
    std::string tmp_path;
    std::string final_path;
  };
  std::vector<OwnedFile> files;
  std::vector<std::unique_ptr<core::ResultSink>> sinks;

  struct TmpCleanup {
    std::vector<OwnedFile>* files;
    bool committed = false;
    ~TmpCleanup() {
      if (committed) return;
      for (OwnedFile& f : *files) {
        f.stream->close();
        std::remove(f.tmp_path.c_str());
      }
    }
  } cleanup{&files};

  /// Staged opener shared by sinks and telemetry outputs: writes to
  /// "<dest>.tmp", renamed on commit. Returns nullptr on failure.
  const auto open_staged = [&](const std::string& flag_name,
                               const std::string& dest) -> std::ostream* {
    const std::string tmp = dest + ".tmp";
    auto f = std::make_unique<std::ofstream>(tmp, std::ios::binary);
    if (!*f) {
      std::cerr << "eend_run: cannot open --" << flag_name
                << " destination \"" << tmp << "\" for writing\n";
      return nullptr;
    }
    std::ostream* os = f.get();
    files.push_back({std::move(f), tmp, dest});
    return os;
  };

  // Two outputs writing the same destination — stdout or a file — would
  // interleave and corrupt both streams. Compare lexically-normalized
  // absolute paths (so "./out" == "out"), and also guard the ".tmp"
  // staging names each file output renames from.
  {
    const std::string csv_dest = flags.get("csv", manifest.name + ".csv");
    const std::string jsonl_dest =
        flags.get("jsonl", manifest.name + ".jsonl");
    if (csv_dest == "-" && jsonl_dest == "-") {
      std::cerr << "eend_run: --csv=- and --jsonl=- cannot share stdout\n";
      return 2;
    }
    std::vector<std::pair<std::string, std::string>> outs;  // flag, dest
    if (csv_dest != "none" && csv_dest != "-")
      outs.emplace_back("csv", csv_dest);
    if (jsonl_dest != "none" && jsonl_dest != "-")
      outs.emplace_back("jsonl", jsonl_dest);
    if (flags.has("counters"))
      outs.emplace_back("counters", flags.get("counters", ""));
    if (flags.has("trace")) outs.emplace_back("trace", flags.get("trace", ""));
    const auto norm = [](const std::string& p) {
      return std::filesystem::absolute(std::filesystem::path(p))
          .lexically_normal();
    };
    for (std::size_t i = 0; i < outs.size(); ++i)
      for (std::size_t j = i + 1; j < outs.size(); ++j)
        if (norm(outs[i].second) == norm(outs[j].second) ||
            norm(outs[i].second) == norm(outs[j].second + ".tmp") ||
            norm(outs[j].second) == norm(outs[i].second + ".tmp")) {
          std::cerr << "eend_run: --" << outs[i].first << " \""
                    << outs[i].second << "\" and --" << outs[j].first
                    << " \"" << outs[j].second
                    << "\" collide (same file or its .tmp staging name)\n";
          return 2;
        }
  }

  // Telemetry outputs: counters stream JSONL after each experiment; trace
  // spans collect in memory and serialize once after the run. Both stay
  // outside the sink stream, so golden-pinned CSV/JSONL bytes are
  // untouched. With EEND_OBS=OFF the files are still produced, just empty
  // of counters/spans.
  std::ostream* counters_os = nullptr;
  std::optional<obs::TraceCollector> trace;
  std::ostream* trace_os = nullptr;
  for (const char* f : {"counters", "trace"}) {
    if (!flags.has(f)) continue;
    const std::string dest = flags.get(f, "");
    if (dest == "-" || dest == "none") {
      std::cerr << "eend_run: --" << f << " needs a file path\n";
      return 2;
    }
    std::ostream* os = open_staged(f, dest);
    if (!os) return 2;
    if (std::string(f) == "counters") counters_os = os;
    else trace_os = os;
  }
  opts.counters = counters_os;
  if (trace_os) trace.emplace();

  core::ExperimentEngine engine(opts);

  const auto open_sink = [&](const std::string& flag_name,
                             const std::string& default_path,
                             auto make_sink) -> bool {
    const std::string dest = flags.get(flag_name, default_path);
    if (dest == "none") return true;
    std::ostream* os = nullptr;
    if (dest == "-") {
      os = &std::cout;
    } else {
      os = open_staged(flag_name, dest);
      if (!os) return false;
    }
    sinks.push_back(make_sink(*os));
    engine.add_sink(*sinks.back());
    return true;
  };
  const bool stdout_is_machine = flags.get("csv", "") == "-" ||
                                 flags.get("jsonl", "") == "-";
  if (!flags.get_bool("no-table", false) && !stdout_is_machine) {
    sinks.push_back(std::make_unique<core::TableSink>(std::cout));
    engine.add_sink(*sinks.back());
  } else if (stdout_is_machine && !flags.get_bool("no-table", false) &&
             !quiet) {
    std::cerr << "eend_run: tables suppressed (stdout carries "
              << (flags.get("csv", "") == "-" ? "CSV" : "JSON-lines")
              << ")\n";
  }
  if (!open_sink("csv", manifest.name + ".csv", [](std::ostream& os) {
        return std::make_unique<core::CsvSink>(os);
      }))
    return 2;
  if (!open_sink("jsonl", manifest.name + ".jsonl", [](std::ostream& os) {
        return std::make_unique<core::JsonlSink>(os);
      }))
    return 2;

  if (trace) obs::set_trace(&*trace);
  try {
    engine.run(manifest);
  } catch (const std::exception& e) {
    obs::set_trace(nullptr);
    std::cerr << "eend_run: " << e.what() << "\n";
    return 1;
  }
  obs::set_trace(nullptr);
  if (trace_os) trace->write_json(*trace_os);

  // A full disk (ENOSPC) sets the stream's error state without throwing;
  // exiting 0 would bless a truncated CSV/JSONL — including regenerated
  // golden files — as complete. '-' sinks share std::cout, so check it too.
  for (OwnedFile& f : files) {
    f.stream->flush();
    if (!f.stream->good()) {
      std::cerr << "eend_run: write error on \"" << f.tmp_path
                << "\" — output is incomplete\n";
      return 1;
    }
  }
  std::cout.flush();
  if (!std::cout.good()) {
    std::cerr << "eend_run: write error on stdout — output is incomplete\n";
    return 1;
  }

  // Commit: everything flushed cleanly, move the temp files into place.
  for (OwnedFile& f : files) {
    f.stream->close();
    if (std::rename(f.tmp_path.c_str(), f.final_path.c_str()) != 0) {
      std::cerr << "eend_run: cannot rename \"" << f.tmp_path << "\" to \""
                << f.final_path << "\"\n";
      return 1;
    }
  }
  cleanup.committed = true;

  if (!quiet)
    for (const OwnedFile& f : files)
      std::cerr << "wrote " << f.final_path << "\n";
  return 0;
}
