// Golden-table regression suite.
//
// Runs the manifest engine in-process on the shipped manifests at --quick
// scale and diffs the JSON-lines output field-by-field against the checked-
// in goldens under tests/golden/. Numeric fields compare with a tight
// relative epsilon (identical IEEE-754 arithmetic should be bit-equal; the
// epsilon absorbs cross-platform libm drift), CI half-widths with a looser
// one. Also asserts the engine's determinism contract: --jobs=1 and
// --jobs=8 produce byte-identical CSV and JSON-lines.
//
// On mismatch a full field-by-field report is written to
// golden_diff_<name>.txt in the test's working directory (CI uploads these
// as artifacts). To regenerate a golden after an intentional behavior
// change:
//
//   ./build/tools/eend_run --manifest examples/manifests/<m>.json
//       --quick --quiet --no-table --csv=none
//       --jsonl=tests/golden/<name>_quick.jsonl
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment_engine.hpp"
#include "core/manifest.hpp"
#include "core/result_sink.hpp"
#include "util/json.hpp"

#ifndef EEND_MANIFEST_DIR
#error "EEND_MANIFEST_DIR must point at examples/manifests"
#endif
#ifndef EEND_GOLDEN_DIR
#error "EEND_GOLDEN_DIR must point at tests/golden"
#endif

namespace eend::core {
namespace {

struct EngineOutput {
  std::string jsonl;
  std::string csv;
};

EngineOutput run_quick_manifest(const Manifest& m, std::size_t jobs) {
  std::ostringstream jsonl, csv;
  EngineOptions opts;
  opts.jobs = jobs;
  opts.quick = true;
  ExperimentEngine engine(opts);
  JsonlSink jsonl_sink(jsonl);
  CsvSink csv_sink(csv);
  engine.add_sink(jsonl_sink);
  engine.add_sink(csv_sink);
  engine.run(m);
  return {jsonl.str(), csv.str()};
}

EngineOutput run_quick(const std::string& manifest_file, std::size_t jobs) {
  return run_quick_manifest(
      Manifest::load(std::string(EEND_MANIFEST_DIR) + "/" + manifest_file),
      jobs);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

/// Field-by-field comparison with per-field epsilons; mismatch descriptions
/// are appended to `diffs` with their JSON path.
void diff_values(const json::Value& got, const json::Value& want,
                 const std::string& path, std::vector<std::string>& diffs) {
  if (got.kind() != want.kind()) {
    diffs.push_back(path + ": kind mismatch (got " + json::dump(got) +
                    ", want " + json::dump(want) + ")");
    return;
  }
  switch (want.kind()) {
    case json::Kind::Number: {
      // CI half-widths aggregate noisier arithmetic (stddev of near-equal
      // samples); give them a looser tolerance than the means.
      const bool is_ci = path.size() >= 5 &&
                         path.compare(path.size() - 5, 5, ".ci95") == 0;
      const double eps = is_ci ? 1e-6 : 1e-9;
      const double a = got.as_number(), b = want.as_number();
      if (std::abs(a - b) > eps * std::max(1.0, std::abs(b)))
        diffs.push_back(path + ": got " + json::dump(got) + ", want " +
                        json::dump(want));
      break;
    }
    case json::Kind::Object: {
      for (const auto& [key, wv] : want.as_object()) {
        const json::Value* gv = got.find(key);
        if (!gv) {
          diffs.push_back(path + "." + key + ": missing in output");
          continue;
        }
        diff_values(*gv, wv, path + "." + key, diffs);
      }
      for (const auto& [key, gv] : got.as_object())
        if (!want.find(key))
          diffs.push_back(path + "." + key + ": not present in golden");
      break;
    }
    case json::Kind::Array: {
      const auto& ga = got.as_array();
      const auto& wa = want.as_array();
      if (ga.size() != wa.size()) {
        diffs.push_back(path + ": array length " + std::to_string(ga.size()) +
                        " != golden " + std::to_string(wa.size()));
        break;
      }
      for (std::size_t i = 0; i < wa.size(); ++i)
        diff_values(ga[i], wa[i], path + "[" + std::to_string(i) + "]",
                    diffs);
      break;
    }
    default:
      if (!(got == want))
        diffs.push_back(path + ": got " + json::dump(got) + ", want " +
                        json::dump(want));
  }
}

void check_against_golden(const std::string& name,
                          const std::string& manifest_file) {
  const std::string golden_path =
      std::string(EEND_GOLDEN_DIR) + "/" + name + ".jsonl";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " — regenerate with:\n  ./build/tools/eend_run "
                     "--manifest examples/manifests/"
                  << manifest_file
                  << " --quick --quiet --no-table --csv=none --jsonl="
                  << golden_path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto want_lines = split_lines(buf.str());
  const auto got_lines = split_lines(run_quick(manifest_file, 1).jsonl);

  std::vector<std::string> diffs;
  if (got_lines.size() != want_lines.size())
    diffs.push_back("row count: got " + std::to_string(got_lines.size()) +
                    ", golden has " + std::to_string(want_lines.size()));
  const std::size_t n = std::min(got_lines.size(), want_lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto got = json::parse(got_lines[i]);
    const auto want = json::parse(want_lines[i]);
    std::string label = "row[" + std::to_string(i) + "]";
    if (const auto* series = want.find("series"))
      label += "(" + series->as_string() + ", x=" +
               json::dump(*want.find("x")) + ")";
    diff_values(got, want, label, diffs);
  }

  if (!diffs.empty()) {
    // Full report next to the test binary; CI uploads golden_diff_*.txt
    // as artifacts on failure.
    const std::string report = "golden_diff_" + name + ".txt";
    std::ofstream rep(report, std::ios::binary);
    rep << "golden: " << golden_path << "\nmanifest: " << manifest_file
        << "\n" << diffs.size() << " mismatched field(s):\n";
    for (const auto& d : diffs) rep << "  " << d << "\n";
    rep << "\n--- engine output (JSON-lines) ---\n";
    for (const auto& l : got_lines) rep << l << "\n";
    std::string first;
    for (std::size_t i = 0; i < diffs.size() && i < 5; ++i)
      first += "\n  " + diffs[i];
    FAIL() << diffs.size() << " field(s) differ from " << golden_path
           << " (full report: " << report << "):" << first;
  }
}

// The paper's three golden tables, at --quick scale.

TEST(GoldenRegression, Fig7CharacteristicHopCount) {
  check_against_golden("fig7_quick", "fig7_small.json");
}

TEST(GoldenRegression, Fig8SmallFieldSweep) {
  check_against_golden("small_field_quick", "small_field.json");
}

TEST(GoldenRegression, Table2Density) {
  check_against_golden("table2_quick", "table2_density.json");
}

// Figs. 13-16 (§5.2.3): the grid kind's frozen-route analytic series, the
// only shipped manifest of that kind.
TEST(GoldenRegression, HypoGrid) {
  check_against_golden("hypo_grid_quick", "hypo_grid.json");
}

// Large-field scaling family (2k nodes at --quick scale): pins the spatial
// index's end-to-end behavior — any neighbor-set or ordering drift in the
// grid-backed channel shows up here as a metric diff.
TEST(GoldenRegression, HugeFieldDensity) {
  check_against_golden("huge_field_quick", "huge_field.json");
}

// Metaheuristic design-search family (random §5.2.2-density fields): pins
// the opt/ subsystem end-to-end — constructive seeds, annealing walks,
// portfolio merge, and the engine's design-kind row shape. Any drift in
// move enumeration order, RNG stream layout, or the GridIndex-backed
// instance construction shows up here as a metric diff.
TEST(GoldenRegression, DesignPortfolio) {
  check_against_golden("design_portfolio_quick", "design_portfolio.json");
}

// Design-replay family: pins the replay/ subsystem end-to-end — instance
// generation with demand weights, lifetime-penalized search, realization
// (powered-off sets, demand-derived CBR flows) and the full simulator run
// per cell. Also the acceptance bar for the lifetime mode: on this pinned
// family the portfolio_lifetime series must reach a strictly later
// first_death_s than the unconstrained portfolio (asserted below from the
// same rows the golden pins).
TEST(GoldenRegression, DesignReplay) {
  check_against_golden("design_replay_quick", "design_replay.json");
}

TEST(GoldenRegression, ReplayLifetimeOutlivesUnconstrainedPortfolio) {
  const auto lines = split_lines(run_quick("design_replay.json", 1).jsonl);
  // first_death_s per (series, x); require portfolio_lifetime > portfolio
  // on at least one instance family (x value), never earlier on any.
  std::map<double, double> portfolio, lifetime;
  for (const auto& l : lines) {
    const auto row = json::parse(l);
    const std::string series = row.find("series")->as_string();
    const double x = row.find("x")->as_number();
    const double death = row.find("metrics")
                             ->find("first_death_s")
                             ->find("mean")
                             ->as_number();
    if (series == "portfolio") portfolio[x] = death;
    if (series == "portfolio_lifetime") lifetime[x] = death;
  }
  ASSERT_FALSE(portfolio.empty());
  ASSERT_EQ(portfolio.size(), lifetime.size());
  bool strictly_later_somewhere = false;
  for (const auto& [x, death] : portfolio) {
    ASSERT_TRUE(lifetime.count(x));
    EXPECT_GE(lifetime[x], death) << "lifetime variant died earlier at n="
                                  << x;
    strictly_later_somewhere |= lifetime[x] > death;
  }
  EXPECT_TRUE(strictly_later_somewhere)
      << "portfolio_lifetime never outlived the unconstrained portfolio";
}

// Presolve family: design search with reductions enabled plus the
// certified-bound columns (lb, certified_gap_pct, reduced counts). Pins the
// presolve/ subsystem end-to-end through the manifest engine.
TEST(GoldenRegression, DesignPresolve) {
  check_against_golden("design_presolve_quick", "design_presolve.json");
}

// Presolve soundness at the engine level: flipping `presolve` on must not
// change a single byte of the existing design/replay golden families' output
// — presolve only computes the certified bound, which every design must meet
// (the certified-bound columns only appear when a manifest *requests* those
// metrics).
TEST(GoldenRegression, PresolveFlipKeepsDesignOutputsByteIdentical) {
  for (const char* file : {"design_portfolio.json", "design_replay.json"}) {
    Manifest m =
        Manifest::load(std::string(EEND_MANIFEST_DIR) + "/" + file);
    const EngineOutput plain = run_quick_manifest(m, 1);
    for (auto& e : m.experiments) e.presolve = true;
    const EngineOutput reduced = run_quick_manifest(m, 1);
    EXPECT_EQ(plain.jsonl, reduced.jsonl) << file;
    EXPECT_EQ(plain.csv, reduced.csv) << file;
    ASSERT_FALSE(plain.jsonl.empty());
  }
}

TEST(GoldenRegression, PresolveKindByteIdenticalAcrossJobs) {
  const EngineOutput serial = run_quick("design_presolve.json", 1);
  const EngineOutput parallel = run_quick("design_presolve.json", 8);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_FALSE(serial.jsonl.empty());
}

// Churn family: pins the serving loop end-to-end — trace generation,
// per-epoch warm-start repair vs from-scratch portfolio, and the periodic
// replay-validation epochs. Any drift in the trace RNG stream, the repair
// region, or the realization path shows up here as a metric diff.
TEST(GoldenRegression, DesignChurn) {
  check_against_golden("design_churn_quick", "design_churn.json");
}

TEST(GoldenRegression, ChurnByteIdenticalAcrossJobs) {
  // The churn kind fans (node count × run) serving loops across the pool;
  // each loop is serial inside, results land in pre-sized slots, so every
  // sink must be byte-stable for any --jobs.
  const EngineOutput serial = run_quick("design_churn.json", 1);
  const EngineOutput parallel = run_quick("design_churn.json", 8);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_FALSE(serial.jsonl.empty());
}

// The serving loop's acceptance bar, asserted on the same rows the golden
// pins: at every epoch the warm-start design's Eq. 5 score stays within 5%
// of the from-scratch portfolio's (ISSUE 9's per-epoch quality gap bound).
TEST(GoldenRegression, ChurnWarmGapWithinBound) {
  const auto lines = split_lines(run_quick("design_churn.json", 1).jsonl);
  ASSERT_FALSE(lines.empty());
  for (const auto& l : lines) {
    const auto row = json::parse(l);
    const double gap = row.find("metrics")
                           ->find("gap_vs_cold_pct")
                           ->find("mean")
                           ->as_number();
    EXPECT_LE(gap, 5.0) << "series " << row.find("series")->as_string()
                        << " epoch " << row.find("x")->as_number();
  }
}

// Determinism contract: the machine-readable streams must be byte-identical
// for any --jobs value, not merely numerically close.

TEST(GoldenRegression, ByteIdenticalAcrossJobs) {
  const EngineOutput serial = run_quick("small_field.json", 1);
  const EngineOutput parallel = run_quick("small_field.json", 8);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_FALSE(serial.jsonl.empty());
  ASSERT_FALSE(serial.csv.empty());
}

TEST(GoldenRegression, DesignKindByteIdenticalAcrossJobs) {
  // The design kind parallelizes *inside* the portfolio (multi-starts via
  // ParallelRunner); its seed-order merge must keep every sink byte-stable.
  const EngineOutput serial = run_quick("design_portfolio.json", 1);
  const EngineOutput parallel = run_quick("design_portfolio.json", 8);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_FALSE(serial.jsonl.empty());
}

// Every shipped manifest — golden-pinned or not — must load, round-trip
// through its canonical form, and list one summary line per experiment.
TEST(GoldenRegression, EveryShippedManifestLoadsAndRoundTrips) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EEND_MANIFEST_DIR))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    const Manifest m = Manifest::load(file.string());
    const std::string canon = m.serialize();
    EXPECT_EQ(canon, Manifest::parse(canon).serialize());
    const auto lines = m.experiment_summaries();
    ASSERT_EQ(lines.size(), m.experiments.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
      EXPECT_EQ(lines[i].substr(0, lines[i].find(' ')),
                m.experiments[i].id);
  }
}

TEST(GoldenRegression, ReplayKindByteIdenticalAcrossJobs) {
  // The replay kind fans two phases across the pool (search per cell, then
  // one full simulation per cell × heuristic); both land in pre-sized
  // slots, so every sink must be byte-stable for any --jobs.
  const EngineOutput serial = run_quick("design_replay.json", 1);
  const EngineOutput parallel = run_quick("design_replay.json", 8);
  EXPECT_EQ(serial.jsonl, parallel.jsonl);
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_FALSE(serial.jsonl.empty());
}

}  // namespace
}  // namespace eend::core
