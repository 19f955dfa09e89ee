// Shared pieces of the LyriC benchmark harness: run arguments, the report
// every workload fills in, and small measurement helpers.
#ifndef LYRIC_PERFBENCH_PERFBENCH_H_
#define LYRIC_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the store, trace and layer files.
  std::string work_dir = ".bench_out";
};

/// What one run measured. `metrics` holds every end-to-end and per-layer
/// value by name; `info` holds provenance and sizes as raw JSON values.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errors, sheds and wrong answers.
  uint64_t wrong = 0;   ///< Wrong answers only; any makes the run fail.
  std::vector<std::string> wrong_examples;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& key, const std::string& json_value) {
    info[key] = json_value;
  }
  void Info(const std::string& key, double value);
  void InfoStr(const std::string& key, const std::string& value);
  void Wrong(const std::string& what);
};

uint64_t NowNs();
/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Peak and current resident set size of this process, in MiB.
double PeakRssMb();
double CurrentRssMb();

/// splitmix64: the harness's only source of randomness, seeded by --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi);
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Interned variables, solver-cache entries and RSS, probed at the start
/// and end of the timed region so per-query growth is a measured number.
struct GrowthProbe {
  size_t vars = 0;
  size_t cache_entries = 0;
  double rss_mb = 0;
  static GrowthProbe Take();
};
/// Records both probes in `report.info` and sets vars_interned_per_query.
void RecordGrowth(const GrowthProbe& start, const GrowthProbe& end,
                  uint64_t queries, Report* report);

/// The engine's own counters, histogram sums and gauges over one
/// interval, from two registry snapshots (gauges keep the later value).
class RegistryDelta {
 public:
  RegistryDelta(const lyric::obs::MetricsSnapshot& before,
                const lyric::obs::MetricsSnapshot& after)
      : d_(after.DeltaSince(before)) {}
  double Counter(const std::string& name) const;
  double HistSumNs(const std::string& name) const;
  double Gauge(const std::string& name) const;

 private:
  lyric::obs::MetricsSnapshot d_;
};

/// Sets the constraint-layer and evaluator-counter per-layer metrics
/// (constraint.*, query.bindings_per_query, query.rows_per_query,
/// exec.chunks_per_query) from a registry delta over `queries` queries.
void SetEngineLayerMetrics(const RegistryDelta& d, double queries,
                           Report* report);

// The workloads. Each returns false only on a setup failure it has
// already printed; wrong answers are recorded in the report.
bool RunPaperMix(const Args& args, Report* report);
bool RunScan(const Args& args, Report* report);
bool RunServe(const Args& args, Report* report);

}  // namespace perfbench

#endif  // LYRIC_PERFBENCH_PERFBENCH_H_
