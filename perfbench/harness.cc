// lyric_perfbench: runs one benchmark workload for a fixed time and prints
// one JSON object (every metric with its unit, counts of attempted,
// failed and wrong operations, and provenance) as its last line.
//
//   lyric_perfbench --workload paper_mix|scan|serve --seed N
//                   --seconds S --trace 0|1 [--work-dir DIR]
//
// perfbench/run.py builds this program and turns its output into the
// benchmark's result line; see perfbench/README.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "constraint/solver_cache.h"
#include "constraint/variable.h"
#include "perfbench.h"

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
  }
  return 0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

}  // namespace

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }
double CurrentRssMb() { return StatusKb("VmRSS") / 1024.0; }

void Report::Info(const std::string& key, double value) {
  info[key] = JsonNumber(value);
}

void Report::InfoStr(const std::string& key, const std::string& value) {
  info[key] = JsonString(value);
}

void Report::Wrong(const std::string& what) {
  ++wrong;
  ++failed;
  if (wrong_examples.size() < 5) wrong_examples.push_back(what);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

GrowthProbe GrowthProbe::Take() {
  GrowthProbe p;
  p.vars = lyric::Variable::Count();
  p.cache_entries = lyric::SolverCache::Global().stats().size;
  p.rss_mb = CurrentRssMb();
  return p;
}

void RecordGrowth(const GrowthProbe& start, const GrowthProbe& end,
                  uint64_t queries, Report* report) {
  report->Info("growth.vars_start", static_cast<double>(start.vars));
  report->Info("growth.vars_end", static_cast<double>(end.vars));
  report->Info("growth.cache_entries_start",
               static_cast<double>(start.cache_entries));
  report->Info("growth.cache_entries_end",
               static_cast<double>(end.cache_entries));
  report->Info("growth.rss_mb_start", start.rss_mb);
  report->Info("growth.rss_mb_end", end.rss_mb);
  const double q = queries == 0 ? 1 : static_cast<double>(queries);
  report->Set("vars_interned_per_query",
              (static_cast<double>(end.vars) - static_cast<double>(start.vars)) / q,
              "count");
}

double RegistryDelta::Counter(const std::string& name) const {
  auto it = d_.counters.find(name);
  return it == d_.counters.end() ? 0 : static_cast<double>(it->second);
}

double RegistryDelta::HistSumNs(const std::string& name) const {
  auto it = d_.histograms.find(name);
  return it == d_.histograms.end() ? 0 : static_cast<double>(it->second.sum);
}

double RegistryDelta::Gauge(const std::string& name) const {
  auto it = d_.gauges.find(name);
  return it == d_.gauges.end() ? 0 : static_cast<double>(it->second);
}

void SetEngineLayerMetrics(const RegistryDelta& d, double queries,
                           Report* r) {
  const double q = queries > 0 ? queries : 1;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  r->Set("query.bindings_per_query",
         d.Counter("evaluator.bindings_enumerated") / q, "count");
  r->Set("query.rows_per_query", d.Counter("evaluator.rows_emitted") / q,
         "count");
  r->Set("exec.chunks_per_query", d.Counter("evaluator.parallel_chunks") / q,
         "count");
  // Kernel times are inclusive (an entailment check contains its LPs).
  r->Set("constraint.simplex.lp_solves_per_query",
         d.Counter("simplex.lp_solves") / q, "count");
  r->Set("constraint.simplex.pivots_per_query",
         d.Counter("simplex.pivots") / q, "count");
  r->Set("constraint.simplex.ns_per_pivot",
         ratio(d.HistSumNs("simplex.solve"), d.Counter("simplex.pivots")),
         "ns");
  r->Set("constraint.simplex.solve_us", d.HistSumNs("simplex.solve") / 1e3 / q,
         "us");
  r->Set("constraint.entailment.branches_per_check",
         ratio(d.Counter("entailment.branches"),
               d.Counter("entailment.checks")),
         "count");
  r->Set("constraint.entailment.check_us",
         d.HistSumNs("entailment.check") / 1e3 / q, "us");
  r->Set("constraint.fm.projections_per_query",
         d.Counter("fm.projections") / q, "count");
  r->Set("constraint.fm.atoms_generated_per_query",
         d.Counter("fm.atoms_generated") / q, "count");
  r->Set("constraint.fm.project_us", d.HistSumNs("fm.project") / 1e3 / q,
         "us");
  r->Set("constraint.canonical.redundancy_checks_per_query",
         d.Counter("canonical.redundancy_checks") / q, "count");
  r->Set("constraint.canonical.simplify_us",
         d.HistSumNs("canonical.simplify") / 1e3 / q, "us");
  const double hits = d.Counter("solver_cache.hits");
  const double misses = d.Counter("solver_cache.misses");
  r->Set("constraint.solver_cache.hit_ratio", ratio(hits, hits + misses),
         "ratio");
  r->Set("constraint.solver_cache.lookups_per_query", (hits + misses) / q,
         "count");
  r->Set("constraint.solver_cache.evictions_per_query",
         d.Counter("solver_cache.evictions") / q, "count");
  r->Set("constraint.solver_cache.entries", d.Gauge("solver_cache.entries"),
         "count");
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      std::cerr << "lyric_perfbench: unknown flag " << flag << "\n";
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->seconds <= 0) {
    std::cerr << "usage: lyric_perfbench --workload paper_mix|scan|serve "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
    return false;
  }
  return true;
}

void PrintReport(const Args& args, const Report& r) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(args.workload)
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"wrong\": " << r.wrong << ", \"wrong_examples\": [";
  for (size_t i = 0; i < r.wrong_examples.size(); ++i) {
    out << (i ? ", " : "") << JsonString(r.wrong_examples[i]);
  }
  out << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(m.value) << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  out << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : r.info) {
    out << (first ? "" : ", ") << JsonString(key) << ": " << value;
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Report report;
  report.InfoStr("build_type", LYRIC_BENCH_BUILD_TYPE);
  report.Info("optimized", Optimized() ? "true" : "false");
  report.InfoStr("compiler", LYRIC_BENCH_COMPILER);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? 1.0 : 0.0);
  if (!Optimized()) {
    std::cerr << "lyric_perfbench: WARNING: unoptimized build ("
              << LYRIC_BENCH_BUILD_TYPE << "); timings are not comparable\n";
  }
  bool ok = false;
  if (args.workload == "paper_mix") {
    ok = RunPaperMix(args, &report);
  } else if (args.workload == "scan") {
    ok = RunScan(args, &report);
  } else if (args.workload == "serve") {
    ok = RunServe(args, &report);
  } else {
    std::cerr << "lyric_perfbench: unknown workload '" << args.workload
              << "'\n";
    return 2;
  }
  if (!ok) return 2;
  PrintReport(args, report);
  return report.wrong == 0 ? 0 : 1;
}
