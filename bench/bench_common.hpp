// Shared option parsing for the simulation benches (ablation, lifetime).
//
// Each of these bench binaries accepts:
//   --runs=N     replications per cell (default: the bench's own count)
//   --quick      tiny smoke configuration (1 run, short sims)
//   --seed=S     base seed
//   --jobs=N     worker threads for replications (1 = serial, 0 = one per
//                hardware thread); tables are identical for every N
//   --quiet      suppress progress lines on stderr (CI logs, piped output)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/flags.hpp"

namespace eend::bench {

/// The knobs shared by the simulation benches, parsed once from Flags.
struct BenchOptions {
  std::size_t runs = 1;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  bool quick = false;
  bool quiet = false;
};

inline BenchOptions parse_bench_options(const Flags& flags,
                                        std::size_t full_runs,
                                        std::size_t quick_runs = 1) {
  BenchOptions o;
  o.quick = flags.get_bool("quick", false);
  o.runs = static_cast<std::size_t>(
      flags.get_int("runs", static_cast<std::int64_t>(
                                o.quick ? quick_runs : full_runs)));
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Negative --jobs would wrap through size_t; treat it as serial.
  o.jobs = static_cast<std::size_t>(std::max<std::int64_t>(
      flags.get_int("jobs", 1), 0));
  o.quiet = flags.get_bool("quiet", false);
  return o;
}

}  // namespace eend::bench
