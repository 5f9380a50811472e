#include "core/result_sink.hpp"

#include <map>
#include <ostream>
#include <utility>

#include "util/check.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace eend::core {

namespace {

std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void CsvSink::row(const ResultRow& r) {
  if (!header_written_) {
    os_ << "experiment,kind,series,x_name,x,runs,seed,metric,mean,ci95,n\n";
    header_written_ = true;
  }
  // Every field goes through the locale-independent formatters — raw
  // operator<< on integers would honor a grouping locale ("10.000").
  for (const MetricValue& m : r.metrics) {
    os_ << csv_quote(r.experiment) << ',' << csv_quote(r.kind) << ','
        << csv_quote(r.series) << ',' << csv_quote(r.x_name) << ','
        << format_double(r.x) << ',' << format_u64(r.runs) << ','
        << format_u64(r.seed) << ',' << csv_quote(m.name) << ','
        << format_double(m.mean) << ',' << format_double(m.ci95) << ','
        << format_u64(m.n) << '\n';
  }
}

void JsonlSink::row(const ResultRow& r) {
  // JSON numbers are doubles; a seed past 2^53 would round silently and
  // disagree with the CSV stream's exact value. Both entry points (manifest
  // parsing, eend_run --seed) enforce this cap — fail loudly if a
  // programmatic caller does not.
  EEND_CHECK_MSG(r.seed <= (1ull << 53),
                 "seed " << r.seed << " does not survive the JSON double "
                            "round-trip (cap: 2^53)");
  json::Object metrics;
  for (const MetricValue& m : r.metrics)
    metrics.emplace_back(
        m.name, json::Object{{"mean", json::Value(m.mean)},
                             {"ci95", json::Value(m.ci95)},
                             {"n", json::Value(static_cast<double>(m.n))}});
  const json::Object obj{
      {"experiment", json::Value(r.experiment)},
      {"kind", json::Value(r.kind)},
      {"series", json::Value(r.series)},
      {"x_name", json::Value(r.x_name)},
      {"x", json::Value(r.x)},
      {"runs", json::Value(static_cast<double>(r.runs))},
      {"seed", json::Value(static_cast<double>(r.seed))},
      {"metrics", json::Value(std::move(metrics))}};
  os_ << json::dump(json::Value(obj)) << '\n';
}

void TableSink::begin_experiment(const Experiment& e) {
  (void)e;
  rows_.clear();
}

void TableSink::row(const ResultRow& r) { rows_.push_back(r); }

void TableSink::end_experiment(const Experiment& e) {
  if (rows_.empty()) return;

  // Axes in first-seen order — the engine emits x-major, series-minor —
  // plus a (series, x) -> row index so the pivot below is O(cells log n)
  // instead of rescanning every row per cell.
  std::vector<double> xs;
  std::vector<std::string> series;
  std::map<std::pair<std::string, double>, const ResultRow*> cell_index;
  for (const ResultRow& r : rows_) {
    bool have_x = false;
    for (const double x : xs) have_x = have_x || x == r.x;
    if (!have_x) xs.push_back(r.x);
    bool have_s = false;
    for (const auto& s : series) have_s = have_s || s == r.series;
    if (!have_s) series.push_back(r.series);
    // Manifest parsing rejects duplicate cells, but a caller that builds
    // an Experiment in code skips that validation (the same stack or card
    // listed twice); collapsing the two series would silently drop one
    // from the table while CSV/JSONL keep both.
    const bool inserted = cell_index.emplace(std::pair{r.series, r.x}, &r)
                              .second;
    EEND_CHECK_MSG(inserted, "duplicate cell (" << r.series << ", x=" << r.x
                             << ") in experiment " << r.experiment);
  }

  const KindAxis& axis = kind_axis(e.kind);
  for (const MetricSpec& metric : e.metrics) {
    std::vector<std::string> header{axis.header};
    for (const auto& s : series) header.push_back(s);
    Table t(std::move(header));
    for (const double x : xs) {
      std::vector<std::string> cells{Table::num(x, axis.precision)};
      for (const auto& s : series) {
        const MetricValue* found = nullptr;
        const auto it = cell_index.find({s, x});
        if (it != cell_index.end())
          for (const MetricValue& m : it->second->metrics)
            if (m.name == metric.name) found = &m;
        EEND_CHECK_MSG(found, "metric " << metric.name << " missing for ("
                                        << s << ", x=" << x << ")");
        cells.push_back(axis.with_ci
                            ? Table::num_ci(found->mean, found->ci95,
                                            metric.precision)
                            : Table::num(found->mean, metric.precision));
      }
      t.add_row(std::move(cells));
    }
    print_table(os_,
                e.title + " — " + metric_display_name(e.kind, metric.name), t);
  }
  rows_.clear();
}

}  // namespace eend::core
