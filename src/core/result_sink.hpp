// Pluggable result emission for the manifest engine.
//
// ExperimentEngine turns every experiment cell into a ResultRow and streams
// it to all registered sinks in a deterministic order (independent of
// --jobs). Three sinks ship:
//
//   CsvSink    long/tidy CSV, one line per (row, metric), fixed header —
//              direct input for pandas / gnuplot / R;
//   JsonlSink  one compact JSON object per row — the golden-file format;
//   TableSink  the human-readable pivot tables the paper's figures use
//              (rows = x-axis, one column per stack/card).
//
// Machine sinks format every number with util/format.hpp's shortest
// round-trip representation, so files are locale-independent and stable
// across platforms for identical IEEE-754 results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/manifest.hpp"

namespace eend::core {

/// One aggregated metric of one cell.
struct MetricValue {
  std::string name;
  double mean = 0.0;
  double ci95 = 0.0;   ///< 95% Student-t half-width (0 when runs < 2)
  std::size_t n = 0;   ///< sample size behind the aggregate
};

/// One experiment cell: a (series, x) point with its metric values.
struct ResultRow {
  std::string experiment;  ///< manifest experiment id
  std::string kind;        ///< kind_name() of the experiment
  std::string series;      ///< stack, card legend, heuristic or "n=<N>"
  std::string x_name;      ///< kind_axis(): "rate_pps", "nodes", "epoch"
                           ///< or "rb"
  double x = 0.0;
  std::size_t runs = 0;
  std::uint64_t seed = 0;
  std::vector<MetricValue> metrics;
};

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void begin_experiment(const Experiment& e) { (void)e; }
  virtual void row(const ResultRow& r) = 0;
  virtual void end_experiment(const Experiment& e) { (void)e; }
};

/// Long-format CSV: header
///   experiment,kind,series,x_name,x,runs,seed,metric,mean,ci95,n
/// then one line per (row, metric). Fields containing separators are
/// RFC-4180 quoted.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& os) : os_(os) {}
  void row(const ResultRow& r) override;

 private:
  std::ostream& os_;
  bool header_written_ = false;
};

/// JSON-lines: one compact object per row, metrics nested by name. The
/// format diffed by the golden regression suite.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(os) {}
  void row(const ResultRow& r) override;

 private:
  std::ostream& os_;
};

/// Pretty pivot tables, one per (experiment, metric): rows = x values in
/// first-seen order, columns = series in first-seen order. The x header,
/// the x cell precision and whether cells print "mean +- ci95" or the bare
/// value (analytic kinds: grid, mopt) come from kind_axis().
class TableSink : public ResultSink {
 public:
  explicit TableSink(std::ostream& os) : os_(os) {}
  void begin_experiment(const Experiment& e) override;
  void row(const ResultRow& r) override;
  void end_experiment(const Experiment& e) override;

 private:
  std::ostream& os_;
  std::vector<ResultRow> rows_;
};

}  // namespace eend::core
