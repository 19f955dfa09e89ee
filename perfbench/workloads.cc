// The benchmark's workloads. Inputs come only from --seed; every answer
// is checked against a reference computed outside the timed region.
//
//   paper_mix  the six §4.1 query templates on the Figure 2 instance,
//              one embedded caller, closed loop, threads=1. About half
//              the queries repeat an earlier one exactly; the rest carry
//              new constants, so the solver always has fresh work.
//   scan       the Figure 2 instance plus kScaledDesks scaled desks, one
//              embedded caller, closed loop, evaluator threads=2: a
//              per-binding entailment filter and a per-desk projection,
//              with fewer distinct solver problems than cache entries.
//   serve      an in-process net::Server over a PagedStore (fsync on
//              commit), 2 connections x 2 exec threads, closed loop:
//              the lyric_loadgen read suite plus one durable CREATE VIEW
//              write every kServeWriteIntervalMs.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "constraint/conjunction.h"
#include "constraint/cst_object.h"
#include "constraint/solver_cache.h"
#include "constraint/variable.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "office/office_db.h"
#include "perfbench.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/paged_store.h"
#include "trace.h"

namespace perfbench {

using lyric::CstObject;
using lyric::Database;
using lyric::EvalOptions;
using lyric::Evaluator;
using lyric::Oid;
using lyric::Rational;
using lyric::Result;
using lyric::ResultSet;
using lyric::SolverCache;
using lyric::Status;

namespace {

// The embedded workloads (paper_mix, scan) run one seeded block of
// queries in passes until the run's time is up (see RunEmbedded). Every
// pass starts from a cleared solver cache and the warm-up, so each
// position of the block does the same work on every pass. The block, not
// the run's length, fixes the work measured, so a faster or slower engine
// is measured on the same queries, and the figures follow the engine, not
// which queries happened to land in the slow moments of a shared machine.
constexpr size_t kPaperBlock = 4900;  // 700 rounds of 7
constexpr size_t kScanBlock = 300;    // 100 rounds of 3
constexpr size_t kMinPasses = 3;
// `serve`'s latency and throughput come from its quietest write intervals
// (see SetQuietMetrics): 1 interval in kServeKeep1In is kept.
constexpr size_t kServeKeep1In = 8;
// On `serve` the store's views, not the reads, grow memory, so peak RSS
// is read once this many writes are acknowledged.
constexpr uint64_t kServeRssAtWrite = 40;
// Solver-cache capacity every run starts from (the engine's default).
constexpr size_t kCacheCapacity = 4096;
// Each set-up round repeats at least this often and this long.
constexpr size_t kSetupRepeats = 5;
constexpr double kSetupMinSeconds = 0.5;
// `scan` and `serve` use Figure 2 plus this many scaled desks. The
// instance, and `scan`'s filter boxes, are the same on every seed
// (AddScaledDesks' own seed is fixed); --seed picks the query stream.
// Which solver problems share an overfull cache shard depends on the
// boxes, and with boxes drawn per seed that moved `scan`'s figures from
// seed to seed more than anything else.
constexpr int kScaledDesks = 150;
constexpr uint64_t kScaledDbSeed = 7;
constexpr int kScanBoxes = 16;
// `serve` sends one CREATE VIEW write this often, so every pass holds a
// known number of writes (seconds * 1000 / interval). At one write in 50
// requests the read p99 tracked the write time (an fsync plus a re-sync
// of the whole database), which varied by up to 3x from run to run.
constexpr uint64_t kServeWriteIntervalMs = 250;

// Evaluator options with nothing left to the environment.
EvalOptions PinnedOptions(size_t threads) {
  EvalOptions opts;
  opts.threads = threads;
  opts.slow_ms = 0;
  opts.deadline_ms.reset();
  opts.memory_budget.reset();
  opts.retry = lyric::exec::RetryPolicy{};
  return opts;
}

void ResetSolverCache() {
  SolverCache::Global().set_capacity(kCacheCapacity);
  SolverCache::Global().Clear();
}

// Every run starts from a cleared cache at the stated capacity.
void StartRun(Report* report) {
  ResetSolverCache();
  report->Info("cache_capacity", static_cast<double>(kCacheCapacity));
}

// The deterministic face of one evaluation: status plus rendered table.
std::string Answer(const Result<ResultSet>& r, const std::string& rendered) {
  return r.ok() ? "OK\n" + rendered : "ERROR " + r.status().ToString();
}

// Serial evaluation on `db`, which callers run with the cache disabled:
// the reference every timed answer is compared with.
std::string ReferenceAnswer(Database* db, const std::string& text,
                            ResultSet* out = nullptr) {
  Evaluator ev(db, PinnedOptions(1));
  Result<ResultSet> r = ev.Execute(text);
  if (out != nullptr && r.ok()) *out = *r;
  return Answer(r, r.ok() ? r->ToString() : "");
}

std::string Rat(int64_t hundredths) {
  Rational r(hundredths, 100);
  return r.ToString();
}

// -- Embedded closed loop ---------------------------------------------------

// One query of a workload's stream; `kind` names its template.
struct Query {
  std::string kind;
  std::string text;
};
using Sequence = std::function<Query()>;

// One timed request: when it completed (an offset from the start of the
// timed region), how long it took, and whether it is a read (the only
// kind the latency figures describe).
struct Completion {
  uint64_t at_ns;
  double latency_us;
  bool read;
};

struct Phase {
  std::vector<Completion> done;
  std::vector<std::string> kinds;  ///< The template of each of `done`.
  double render_bytes = 0;
};

// First answer seen per query text (as a hash); a later answer that
// differs is wrong. Pre-filled with references, it checks every answer
// against them.
struct AnswerBook {
  std::unordered_map<std::string, size_t> answers;
  void Check(const std::string& text, const std::string& answer,
             Report* report) {
    const size_t hash = std::hash<std::string>()(answer);
    auto [it, inserted] = answers.emplace(text, hash);
    if (!inserted && it->second != hash) {
      report->Wrong("answer differs from reference/earlier run: " + text);
    }
  }
};

// Runs `count` queries from `next`, one after another. Each query is
// parsed, executed and rendered; its latency covers all three, and each
// call is a span of `tracer`.
Phase RunClosedLoop(Database* db, size_t threads, const Sequence& next,
                    uint64_t count, Tracer* tracer, AnswerBook* book,
                    Report* report) {
  const EvalOptions opts = PinnedOptions(threads);
  Phase phase;
  const uint64_t start = NowNs();
  for (uint64_t i = 0; i < count; ++i) {
    const Query query = next();
    const std::string& text = query.text;
    const uint64_t t0 = NowNs();
    std::optional<Result<ResultSet>> result;
    std::string rendered;
    {
      Tracer::Root root(tracer, "query", i);
      Result<lyric::ast::Query> parsed = [&] {
        lyric::obs::Span span("ParseQuery");
        return lyric::ParseQuery(text);
      }();
      if (!parsed.ok()) {
        result.emplace(parsed.status());
      } else {
        lyric::obs::Span span("Evaluator::Execute");
        Evaluator ev(db, opts);
        result.emplace(ev.Execute(*parsed));
      }
      if (result->ok()) {
        lyric::obs::Span span("ResultSet::ToString");
        rendered = (*result)->ToString();
      }
    }
    const uint64_t t1 = NowNs();
    const double latency = static_cast<double>(t1 - t0) / 1e3;
    phase.done.push_back(Completion{t1 - start, latency, true});
    phase.kinds.push_back(query.kind);
    ++report->attempted;
    if (!result->ok()) ++report->failed;
    phase.render_bytes += static_cast<double>(rendered.size());
    book->Check(text, Answer(*result, rendered), report);
  }
  return phase;
}

double SumUs(const std::vector<Completion>& done) {
  double sum = 0;
  for (const Completion& c : done) sum += c.latency_us;
  return sum;
}

// Sets query_p50_us, query_p99_us and throughput_qps on `serve` from the
// quietest write intervals of the timed region. The completions, in time
// order, are cut into slices that each end with a write (a trailing
// partial slice is dropped); 1 slice in kServeKeep1In, those that
// completed the most requests per unit of time, are pooled, the latency
// quantiles are read from the pooled reads and the throughput is the
// pooled completions over the pooled time. A stretch in which the shared
// machine runs slow lands in the slow slices and is left out; a change to
// the program moves every slice alike. Each slice holds one write, so the
// quiet ones do not leave out the writes' effect on reads.
void SetQuietMetrics(std::vector<Completion> done, Report* report) {
  if (done.empty()) return;
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.at_ns < b.at_ns;
            });
  struct Slice {
    uint64_t ns;
    size_t begin, end;  // [begin, end) in `done`
  };
  std::vector<Slice> slices;
  for (size_t i = 0, begin = 0; i < done.size(); ++i) {
    if (done[i].read) continue;
    const uint64_t from = begin == 0 ? 0 : done[begin - 1].at_ns;
    slices.push_back(Slice{done[i].at_ns - from, begin, i + 1});
    begin = i + 1;
  }
  if (slices.empty()) slices.push_back(Slice{done.back().at_ns, 0, done.size()});
  auto ns_per_completion = [](const Slice& s) {
    return static_cast<double>(s.ns) / static_cast<double>(s.end - s.begin);
  };
  std::sort(slices.begin(), slices.end(), [&](const Slice& a, const Slice& b) {
    return ns_per_completion(a) < ns_per_completion(b);
  });
  const size_t kept = std::max<size_t>(1, slices.size() / kServeKeep1In);
  std::vector<double> reads;
  uint64_t kept_ns = 0;
  size_t kept_done = 0;
  for (size_t k = 0; k < kept; ++k) {
    kept_ns += slices[k].ns;
    kept_done += slices[k].end - slices[k].begin;
    for (size_t i = slices[k].begin; i < slices[k].end; ++i) {
      if (done[i].read) reads.push_back(done[i].latency_us);
    }
  }
  report->Set("query_p50_us", Quantile(reads, 0.50), "us");
  report->Set("query_p99_us", Quantile(reads, 0.99), "us");
  report->Set("throughput_qps",
              static_cast<double>(kept_done) /
                  (static_cast<double>(std::max<uint64_t>(1, kept_ns)) / 1e9),
              "1/s");
  report->Info("query_samples", static_cast<double>(reads.size()));
  report->Info("completions", static_cast<double>(done.size()));
  report->Info("slices", static_cast<double>(slices.size()));
  report->Info("slices_kept", static_cast<double>(kept));
  // How uneven the run was: slowest over fastest slice, per completion.
  report->Info("slice_time_ratio",
               ns_per_completion(slices.back()) / ns_per_completion(slices[0]));
}

// Set-up timing. Each round repeats `build` at least kSetupRepeats times
// and for at least kSetupMinSeconds; workloads run one round before and
// one after the timed region. setup_s is the fastest of all repeats:
// within one round the build time jumped between two levels about 1.6x
// apart as the shared machine got busier and quieter, and the median or
// lower quartile landed on either level from run to run.
class SetupTimer {
 public:
  /// `teardown` runs untimed before every build but the round's first.
  bool Round(const std::function<bool()>& build,
             const std::function<void()>& teardown) {
    const uint64_t stop =
        NowNs() + static_cast<uint64_t>(kSetupMinSeconds * 1e9);
    for (size_t n = 0; n < kSetupRepeats || NowNs() < stop; ++n) {
      if (n > 0) teardown();
      const uint64_t t0 = NowNs();
      if (!build()) return false;
      times_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    return true;
  }
  double Value() const {
    return times_.empty() ? 0 : *std::min_element(times_.begin(), times_.end());
  }

 private:
  std::vector<double> times_;
};

using DbBuilder = std::function<bool(std::unique_ptr<Database>*)>;

// Untraced run: end-to-end metrics from passes over the workload's block
// of `block` queries (see kPaperBlock) until `--seconds` elapse, at least
// kMinPasses of them. Each pass clears the solver cache and runs
// `warm_up`, both untimed. query_p50_us is the median of each position's
// fastest latency over the passes, and throughput_qps is the block over
// the sum of those latencies. query_p99_us is the median over the passes
// of each pass's p99: the slowest queries of a pass are mostly ones the
// shared machine slowed down, a different few on every pass, so the
// fastest latency per position would remove the tail itself, the more so
// the more passes a faster engine fits in. Peak RSS is read after the
// second pass, a fixed amount of work, because the engine's memory grows
// with the number of queries. The growth probes span the first pass.
//
// Traced run: the same passes for half the time, then one pass replayed
// with tracing on a freshly built instance; per-layer metrics come from
// the replay, and its summed latency over the untraced passes' median is
// the tracing overhead.
void RunEmbedded(const Args& args, Database* db, const DbBuilder& build,
                 size_t threads, size_t block,
                 const std::function<Sequence()>& make_sequence,
                 const std::function<void(Database*)>& warm_up,
                 AnswerBook* book, Report* report) {
  Tracer off(false);
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const uint64_t stop = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  std::vector<double> best(block, std::numeric_limits<double>::infinity());
  std::vector<double> pass_us, pass_p99;
  std::vector<std::string> kinds;
  double peak_rss_mb = 0;
  for (size_t pass = 0; pass < kMinPasses || NowNs() < stop; ++pass) {
    ResetSolverCache();
    warm_up(db);
    const GrowthProbe g0 = GrowthProbe::Take();
    Phase p = RunClosedLoop(db, threads, make_sequence(), block, &off, book,
                            report);
    if (pass == 0) {
      RecordGrowth(g0, GrowthProbe::Take(), block, report);
      kinds = p.kinds;
    }
    if (pass == 1) peak_rss_mb = PeakRssMb();
    for (size_t i = 0; i < block; ++i) {
      best[i] = std::min(best[i], p.done[i].latency_us);
    }
    pass_us.push_back(SumUs(p.done));
    std::vector<double> latency;
    for (const Completion& c : p.done) latency.push_back(c.latency_us);
    pass_p99.push_back(Quantile(std::move(latency), 0.99));
  }
  report->Set("query_p50_us", Quantile(best, 0.50), "us");
  report->Set("query_p99_us", Median(pass_p99), "us");
  double best_us = 0;
  for (double b : best) best_us += b;
  report->Set("throughput_qps", static_cast<double>(block) / (best_us / 1e6),
              "1/s");
  report->Set("rss_peak_mb", peak_rss_mb, "MiB");
  report->Info("block", static_cast<double>(block));
  report->Info("passes", static_cast<double>(pass_us.size()));
  report->Info("completions", static_cast<double>(block * pass_us.size()));
  // How uneven the run was: slowest over fastest pass.
  report->Info("pass_time_ratio",
               *std::max_element(pass_us.begin(), pass_us.end()) /
                   *std::min_element(pass_us.begin(), pass_us.end()));
  std::map<std::string, std::vector<double>> by_kind;
  for (size_t i = 0; i < block; ++i) by_kind[kinds[i]].push_back(best[i]);
  for (const auto& [kind, latency] : by_kind) {
    report->Info("p50_us." + kind, Quantile(latency, 0.5));
    report->Info("share." + kind, static_cast<double>(latency.size()) /
                                      static_cast<double>(block));
  }
  if (!args.trace) return;

  std::unique_ptr<Database> fresh;
  if (!build(&fresh)) return;
  ResetSolverCache();
  warm_up(fresh.get());
  Tracer tracer(true);
  const lyric::obs::MetricsSnapshot before =
      lyric::obs::Registry::Global().Snapshot();
  Phase traced = RunClosedLoop(fresh.get(), threads, make_sequence(), block,
                               &tracer, book, report);
  const lyric::obs::MetricsSnapshot after =
      lyric::obs::Registry::Global().Snapshot();
  const double n = static_cast<double>(traced.done.size());
  SetEngineLayerMetrics(RegistryDelta(before, after), n, report);
  const SpanAggregate agg = tracer.Totals();
  report->Set("query.parse_us", SelfUsPerQuery(agg, "ParseQuery", n), "us");
  report->Set("query.from_us", SelfUsPerQuery(agg, "from", n), "us");
  report->Set("query.where_us", SelfUsPerQuery(agg, "where", n), "us");
  report->Set("query.select_us", SelfUsPerQuery(agg, "select", n), "us");
  report->Set("query.canonicalize_us", SelfUsPerQuery(agg, "canonicalize", n),
              "us");
  report->Set("query.render_us", SelfUsPerQuery(agg, "ResultSet::ToString", n),
              "us");
  report->Set("query.render_bytes", traced.render_bytes / n, "bytes");
  report->Set("exec.chunk_wait_us", SelfUsPerQuery(agg, "chunk_wait", n),
              "us");
  report->Set("exec.chunk_merge_us", SelfUsPerQuery(agg, "chunk_merge", n),
              "us");
  report->Set("exec.queue_wait_us",
              SelfUsPerQuery(agg, "admission.queue_wait", n), "us");
  report->Set("trace.overhead_ratio",
              SumUs(traced.done) / Median(pass_us) - 1, "ratio");
  const std::string prefix = args.work_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
  for (const std::string& path : WriteTraceFiles(
           {{"trace", tracer.ChromeTraceJson()}}, agg, prefix, n)) {
    report->InfoStr("file." + path.substr(path.rfind('/') + 1), path);
  }
}

// -- paper_mix --------------------------------------------------------------

// The §4.1 queries (tests/paper_examples_test.cc asserts the same stated
// results). Q2, Q4, Q5 and Q6 take constants.
enum Template { kQ1, kQ2, kQ3, kQ4, kQ5, kQ6, kTemplates };
const char* const kNames[kTemplates] = {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"};

const char* const kQ1Text = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
const char* const kQ3Text =
    "SELECT O, ((u, v) | D(w, z, x, y, u, v) and "
    "DD(w1, z1, x1, y1, u1, v1) and w = u1 and z = v1 and "
    "DC(p, q) and DE(w1, z1) and L(x, y)) "
    "FROM Object_in_Room O, Desk DSK "
    "WHERE O.location[L] and O.catalog_object[DSK] and "
    "DSK.translation[D] and DSK.drawer_center[DC] and "
    "DSK.drawer.translation[DD] and DSK.drawer.extent[DE]";

std::string Q2(const std::string& x, const std::string& y) {
  return "SELECT CO, ((u, v) | E and D and x = " + x + " and y = " + y +
         ") FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]";
}

std::string Q4(const std::string& p) {
  return "SELECT DSK, ((w, z) | DSK.drawer.extent(w, z) and z >= w) "
         "FROM Desk DSK WHERE DSK.color = 'red' and DSK.drawer_center[C] "
         "and C(p, q) |= p = " +
         p;
}

std::string Q5(const std::string& lu, const std::string& hu,
               const std::string& lv, const std::string& hv) {
  return "SELECT DSK FROM Object_in_Room O, Desk DSK "
         "WHERE O.catalog_object[DSK] and O.location[L] and "
         "DSK.translation[D] and DSK.drawer_center[DC] and "
         "DSK.drawer.extent[DE] and DSK.drawer.translation[DD] and "
         "((u, v) | D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1) and "
         "w = u1 and z = v1 and DC(p, q) and DE(w1, z1) and L(x, y)) "
         "|= ((u, v) | " +
         lu + " < u and u < " + hu + " and " + lv + " < v and v < " + hv +
         ")";
}

std::string Q6(const std::string& objective) {
  return "SELECT MAX(" + objective +
         " SUBJECT TO ((w, z) | E)) FROM Desk X WHERE X.extent[E]";
}

CstObject UvBox(int64_t lo_u, int64_t hi_u, int64_t lo_v, int64_t hi_v) {
  using lyric::LinearConstraint;
  using lyric::LinearExpr;
  const lyric::VarId u = lyric::Variable::Intern("u");
  const lyric::VarId v = lyric::Variable::Intern("v");
  lyric::Conjunction c;
  c.Add(LinearConstraint::Ge(LinearExpr::Var(u), LinearExpr::Constant(lo_u)));
  c.Add(LinearConstraint::Le(LinearExpr::Var(u), LinearExpr::Constant(hi_u)));
  c.Add(LinearConstraint::Ge(LinearExpr::Var(v), LinearExpr::Constant(lo_v)));
  c.Add(LinearConstraint::Le(LinearExpr::Var(v), LinearExpr::Constant(hi_v)));
  return CstObject::FromConjunction({u, v}, c).value();
}

// A query with the paper's constants and the answer §4.1 states for it.
struct PaperQuery {
  Template tmpl;
  std::string text;
  std::function<bool(Database&, const ResultSet&)> stated;
};

bool IsCstEquivalent(Database& db, const Oid& oid, const CstObject& want) {
  if (!oid.IsCst()) return false;
  Result<CstObject> got = db.GetCst(oid);
  return got.ok() && got->EquivalentTo(want).ValueOr(false);
}

std::vector<PaperQuery> PaperQueries() {
  const Oid desk = Oid::Symbol("standard_desk");
  return {
      {kQ1, kQ1Text,
       [](Database& db, const ResultSet& r) {
         return r.size() == 1 &&
                IsCstEquivalent(db, r.rows()[0][0], lyric::office::BoxExtent(1, 1));
       }},
      {kQ2, Q2("6", "4"),
       [desk](Database& db, const ResultSet& r) {
         return r.size() == 1 && r.rows()[0][0] == desk &&
                IsCstEquivalent(db, r.rows()[0][1], UvBox(2, 10, 2, 6));
       }},
      {kQ3, kQ3Text,
       [](Database& db, const ResultSet& r) {
         return r.size() == 1 &&
                IsCstEquivalent(db, r.rows()[0][1], UvBox(3, 5, 1, 5));
       }},
      {kQ4, Q4("0"), [](Database&, const ResultSet& r) { return r.empty(); }},
      {kQ4, Q4("-2"),
       [](Database& db, const ResultSet& r) {
         if (r.size() != 1 || !r.rows()[0][1].IsCst()) return false;
         Result<CstObject> tri = db.GetCst(r.rows()[0][1]);
         auto in = [&](int64_t w, int64_t z) {
           return tri.ok() && tri->Contains({Rational(w), Rational(z)})
                                  .ValueOr(false);
         };
         return in(-1, 1) && in(0, 0) && !in(1, 0) && !in(2, 2);
       }},
      {kQ5, Q5("0", "20", "0", "10"),
       [desk](Database&, const ResultSet& r) {
         return r.size() == 1 && r.rows()[0][0] == desk;
       }},
      {kQ5, Q5("0", "20", "0", "4"),
       [](Database&, const ResultSet& r) { return r.empty(); }},
      {kQ6, Q6("w + z"),
       [](Database&, const ResultSet& r) {
         return r.size() == 1 && r.rows()[0][0] == Oid::Real(Rational(6));
       }},
  };
}

// The seeded query stream: rounds of seven queries, each a fresh seeded
// permutation of Q1..Q6 with Q3 twice. Q3 is doubled so the median falls
// inside one template's latency band instead of on the edge between two,
// where it would jump between them from run to run. A template with
// constants draws new ones with probability 9/10 and otherwise repeats
// one of its earlier instances, so about half of all queries (Q1 and Q3
// always) repeat an earlier query exactly.
class PaperMix {
 public:
  explicit PaperMix(uint64_t seed) : rng_(seed), pool_(kTemplates) {
    for (const PaperQuery& q : PaperQueries()) pool_[q.tmpl].push_back(q.text);
  }

  Query Next() {
    if (pos_ % kRound.size() == 0) {
      order_ = kRound;
      for (size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng_.Next() % (i + 1)]);
      }
    }
    const int t = order_[pos_++ % kRound.size()];
    std::vector<std::string>& pool = pool_[t];
    if (t == kQ1 || t == kQ3 || rng_.Unit() >= 0.9) {
      return Query{kNames[t], pool[rng_.Next() % pool.size()]};
    }
    pool.push_back(Fresh(t));
    return Query{kNames[t], pool.back()};
  }

 private:
  std::string Fresh(int t) {
    switch (t) {
      case kQ2:
        return Q2(Rat(rng_.Range(0, 2000)), Rat(rng_.Range(0, 1000)));
      case kQ4:
        return Q4(Rat(rng_.Range(-50000, 50000)));
      case kQ5:
        return Q5(Rat(rng_.Range(0, 350)), Rat(rng_.Range(450, 2000)),
                  Rat(rng_.Range(0, 150)), Rat(rng_.Range(450, 1000)));
      default: {  // kQ6
        const int64_t a = rng_.Range(1, 5000) * (rng_.Next() % 2 ? 1 : -1);
        const int64_t b = rng_.Range(1, 5000);
        return Q6(Rat(a) + " * w " + (rng_.Next() % 2 ? "+ " : "- ") +
                  Rat(b) + " * z");
      }
    }
  }

  const std::vector<int> kRound = {kQ1, kQ2, kQ3, kQ3, kQ4, kQ5, kQ6};
  Rng rng_;
  std::vector<std::vector<std::string>> pool_;
  std::vector<int> order_;
  uint64_t pos_ = 0;
};

bool BuildPaperDb(Database* db) {
  Result<lyric::office::OfficeIds> ids = lyric::office::BuildOfficeDatabase(db);
  if (!ids.ok()) std::cerr << "office db: " << ids.status().ToString() << "\n";
  return ids.ok();
}

bool BuildScaledDb(Database* db, int desks, uint64_t seed) {
  if (!BuildPaperDb(db)) return false;
  Status st = lyric::office::AddScaledDesks(db, desks, seed);
  if (!st.ok()) std::cerr << "scaled desks: " << st.ToString() << "\n";
  return st.ok();
}

}  // namespace

bool RunPaperMix(const Args& args, Report* report) {
  StartRun(report);
  std::unique_ptr<Database> db;
  SetupTimer setup;
  const DbBuilder build = [](std::unique_ptr<Database>* out) {
    *out = std::make_unique<Database>();
    return BuildPaperDb(out->get());
  };
  if (!setup.Round([&] { return build(&db); }, [&] { db.reset(); })) {
    return false;
  }

  const std::vector<PaperQuery> paper = PaperQueries();
  auto warm_up = [&](Database* target) {
    Evaluator ev(target, PinnedOptions(1));
    for (const PaperQuery& q : paper) (void)ev.Execute(q.text);
  };
  auto make_sequence = [&]() -> Sequence {
    auto mix = std::make_shared<PaperMix>(args.seed);
    return [mix] { return mix->Next(); };
  };
  AnswerBook book;
  RunEmbedded(args, db.get(), build, 1, kPaperBlock, make_sequence, warm_up,
              &book, report);
  std::unique_ptr<Database> spare;
  if (!setup.Round([&] { return build(&spare); }, [&] { spare.reset(); })) {
    return false;
  }
  spare.reset();
  report->Set("setup_s", setup.Value(), "s");

  // Correctness, outside the timed region: every distinct query against
  // a serial cache-disabled evaluation on a separately built instance,
  // and the paper's constants against the answers §4.1 states.
  Database ref_db;
  if (!BuildPaperDb(&ref_db)) return false;
  SolverCache::Global().set_capacity(0);
  for (const auto& [text, answer] : book.answers) {
    if (std::hash<std::string>()(ReferenceAnswer(&ref_db, text)) != answer) {
      report->Wrong("paper_mix answer differs from reference: " + text);
    }
  }
  for (const PaperQuery& q : paper) {
    ResultSet rs;
    ReferenceAnswer(&ref_db, q.text, &rs);
    if (!q.stated(ref_db, rs)) {
      report->Wrong("paper_mix misses the §4.1 stated result: " + q.text);
    }
  }
  ResetSolverCache();
  report->Info("distinct_queries", static_cast<double>(book.answers.size()));
  report->Info("repeat_share",
               1.0 - static_cast<double>(book.answers.size()) /
                         static_cast<double>(kPaperBlock));
  return true;
}

// -- scan -------------------------------------------------------------------

namespace {


const char* const kScanProjection =
    "SELECT O, ((u, v) | E and D and L) "
    "FROM Object_in_Room O, Office_Object CO "
    "WHERE O.catalog_object[CO] and O.location[L] and CO.extent[E] and "
    "CO.translation[D]";

std::string ScanFilter(Rng* rng) {
  return "SELECT O FROM Object_in_Room O WHERE O.location[L] and "
         "L(x, y) |= (" +
         std::to_string(rng->Range(0, 4)) + " < x and x < " +
         std::to_string(rng->Range(14, 20)) + " and " +
         std::to_string(rng->Range(0, 2)) + " < y and y < " +
         std::to_string(rng->Range(7, 10)) + ")";
}

}  // namespace

bool RunScan(const Args& args, Report* report) {
  StartRun(report);
  std::unique_ptr<Database> db;
  SetupTimer setup;
  const DbBuilder build = [](std::unique_ptr<Database>* out) {
    *out = std::make_unique<Database>();
    return BuildScaledDb(out->get(), kScaledDesks, kScaledDbSeed);
  };
  if (!setup.Round([&] { return build(&db); }, [&] { db.reset(); })) {
    return false;
  }

  Rng boxes(kScaledDbSeed);
  std::vector<std::string> queries = {kScanProjection};
  for (int i = 0; i < kScanBoxes; ++i) queries.push_back(ScanFilter(&boxes));

  // References first, on a separately built instance with the cache off.
  AnswerBook book;
  {
    Database ref_db;
    if (!BuildScaledDb(&ref_db, kScaledDesks, kScaledDbSeed)) return false;
    SolverCache::Global().set_capacity(0);
    for (const std::string& q : queries) {
      book.answers[q] = std::hash<std::string>()(ReferenceAnswer(&ref_db, q));
    }
    ResetSolverCache();
  }
  auto warm_up = [&](Database* target) {
    Evaluator ev(target, PinnedOptions(2));
    for (const std::string& q : queries) (void)ev.Execute(q);
  };
  auto make_sequence = [&]() -> Sequence {
    auto rng = std::make_shared<Rng>(args.seed);
    auto pos = std::make_shared<uint64_t>(0);
    auto projection_at = std::make_shared<uint64_t>(0);
    return [rng, pos, projection_at, &queries] {
      // Rounds of three in seeded order: two filters on seeded picks of
      // the fixed boxes and one projection. The median falls inside the
      // filters' latency band, the p99 inside the projections'.
      const uint64_t i = (*pos)++;
      if (i % 3 == 0) *projection_at = rng->Next() % 3;
      if (i % 3 == *projection_at) return Query{"projection", queries[0]};
      return Query{"filter", queries[1 + rng->Next() % kScanBoxes]};
    };
  };
  RunEmbedded(args, db.get(), build, 2, kScanBlock, make_sequence, warm_up,
              &book, report);
  std::unique_ptr<Database> spare;
  if (!setup.Round([&] { return build(&spare); }, [&] { spare.reset(); })) {
    return false;
  }
  spare.reset();
  report->Set("setup_s", setup.Value(), "s");
  report->Info("desks", kScaledDesks);
  report->Info("distinct_queries", static_cast<double>(queries.size()));
  return true;
}

// -- serve ------------------------------------------------------------------

namespace {

namespace net = lyric::net;
namespace storage = lyric::storage;

// The lyric_loadgen suite (tools/lyric_loadgen.cpp).
const char* const kServeReads[] = {
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
    "y = 4) FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12",
    "SELECT O FROM Object_in_Room O",
};
const char* const kServeReadNames[] = {"drawer_extent", "global_extent",
                                       "filter", "all_objects"};
constexpr int kServeReadKinds = 4;
// Draw weights: all_objects is half the reads, so the read median falls
// inside its latency band, not on the edge between two bands.
constexpr int kServeReadWeights[kServeReadKinds] = {1, 1, 1, 3};
constexpr int kServeReadWeightSum = 6;
// A write's view holds the desks inside a box drawn from this range.
constexpr int64_t kViewXMin = 4, kViewXMax = 16, kViewYMin = 2, kViewYMax = 8;

// The rows a write's view holds; the write's answer is this SELECT's.
std::string ServeViewSelect(int64_t x, int64_t y) {
  return "SELECT O FROM Object_in_Room O WHERE O.location[L] and "
         "L(x, y) |= (x < " +
         std::to_string(x) + " and y < " + std::to_string(y) + ")";
}

// Expected Fingerprint() of every request the clients can send.
struct ServeReferences {
  std::string reads[kServeReadKinds];
  std::map<std::pair<int64_t, int64_t>, std::string> views;
};

// What one connection saw.
struct ClientLog {
  std::vector<Completion> done;  ///< Reads and writes.
  std::vector<double> write_us;
  std::map<std::string, std::vector<double>> by_kind;
  double queue_wait_us = 0, codec_us = 0, response_bytes = 0;
  uint64_t attempted = 0, failed = 0, writes_ok = 0;
  std::vector<std::string> wrong;
  SpanAggregate spans;
  std::string chrome_trace;
};

// One pass of DriveClosedLoop.
struct Pass {
  std::vector<ClientLog> logs;
  uint64_t writes_sent = 0;
  double peak_rss_mb = 0;  ///< VmHWM once kServeRssAtWrite writes are acked.
};

// One booted server: store, hydrated database, server, two clients.
struct Booted {
  std::unique_ptr<storage::PagedStore> store;
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  double open_ms = 0, hydrate_ms = 0;

  void Shutdown() {
    if (server) server->Stop();
    server.reset();
    if (store) (void)store->Close();
    store.reset();
    db.reset();
  }
};

bool Boot(const std::string& path, Tracer* tracer, uint64_t id, Booted* b) {
  Tracer::Root root(tracer, "boot", id);
  uint64_t t0 = NowNs();
  {
    lyric::obs::Span span("PagedStore::Open");
    storage::StoreOptions so;
    so.path = path;
    so.sync_commits = true;
    Result<std::unique_ptr<storage::PagedStore>> store =
        storage::PagedStore::Open(so);
    if (!store.ok()) {
      std::cerr << "serve: open store: " << store.status().ToString() << "\n";
      return false;
    }
    b->store = std::move(*store);
  }
  uint64_t t1 = NowNs();
  b->db = std::make_unique<Database>();
  {
    lyric::obs::Span span("ExportToDatabase");
    Status st = b->store->ExportToDatabase(b->db.get());
    if (!st.ok()) {
      std::cerr << "serve: hydrate: " << st.ToString() << "\n";
      return false;
    }
  }
  const uint64_t t2 = NowNs();
  b->open_ms = static_cast<double>(t1 - t0) / 1e6;
  b->hydrate_ms = static_cast<double>(t2 - t1) / 1e6;
  net::ServerOptions so;
  so.exec_threads = 2;
  so.eval = PinnedOptions(1);
  so.store = b->store.get();
  b->server = std::make_unique<net::Server>(b->db.get(), so);
  lyric::obs::Span span("Server::Start");
  Status st = b->server->Start();
  if (!st.ok()) std::cerr << "serve: start: " << st.ToString() << "\n";
  return st.ok();
}

// Copies a closed store (data file and WAL, when present) over `to`.
bool CopyStore(const std::string& from, const std::string& to) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const std::string& suffix : {std::string(), std::string("-wal")}) {
    fs::remove(to + suffix, ec);
    if (fs::exists(from + suffix)) fs::copy_file(from + suffix, to + suffix, ec);
    if (ec) {
      std::cerr << "serve: copy store: " << ec.message() << "\n";
      return false;
    }
  }
  return true;
}

net::ClientOptions ClientOptionsFor(const net::Server& server) {
  net::ClientOptions co;
  co.host = "127.0.0.1";
  co.port = server.port();
  return co;
}

// Drives the server closed loop for `seconds` from two connections: each
// sends its next request as soon as the previous answer arrives. Once
// every kServeWriteIntervalMs, the first connection to notice sends the
// next CREATE VIEW write, with a fresh name (so each write commits) and a
// box drawn from the seed and the write's number. Otherwise client c
// sends a read drawn from its own seeded stream.
Pass DriveClosedLoop(net::Server* server, uint64_t seed, double seconds,
                     bool traced, const std::string& view_prefix,
                     const ServeReferences& refs) {
  Pass pass;
  pass.logs.resize(2);
  std::vector<std::unique_ptr<net::Client>> clients;
  for (size_t c = 0; c < pass.logs.size(); ++c) {
    clients.push_back(std::make_unique<net::Client>(ClientOptionsFor(*server)));
    // Warm-up, untimed: connect and run each read once.
    for (const char* q : kServeReads) (void)clients.back()->Execute(q);
  }
  std::atomic<uint64_t> writes{0}, acked{0};
  const uint64_t interval_ns = kServeWriteIntervalMs * 1000000;
  const uint64_t start = NowNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < pass.logs.size(); ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = pass.logs[c];
      net::Client& client = *clients[c];
      Tracer tracer(traced);
      Rng rng(seed * pass.logs.size() + c);
      for (uint64_t i = 0;; ++i) {
        const uint64_t now = NowNs();
        if (now >= stop) break;
        uint64_t w = writes.load();
        const bool write = now >= start + (w + 1) * interval_ns &&
                           writes.compare_exchange_strong(w, w + 1);
        int kind = -1;
        std::string text;
        const std::string* reference = nullptr;
        if (write) {
          Rng box(seed * 1000003 + w);
          const int64_t x = box.Range(kViewXMin, kViewXMax);
          const int64_t y = box.Range(kViewYMin, kViewYMax);
          text = "CREATE VIEW " + view_prefix + std::to_string(w) +
                 " AS SUBCLASS OF Object_in_Room " + ServeViewSelect(x, y);
          reference = &refs.views.at({x, y});
        } else {
          int pick = static_cast<int>(rng.Next() % kServeReadWeightSum);
          kind = 0;
          while (pick >= kServeReadWeights[kind]) {
            pick -= kServeReadWeights[kind++];
          }
          text = kServeReads[kind];
          reference = &refs.reads[kind];
        }
        Tracer::Root root(&tracer, "query", i * pass.logs.size() + c);
        const uint64_t sent = NowNs();
        Result<net::QueryResponse> resp = [&] {
          lyric::obs::Span span("Client::Execute");
          return client.Execute(text);
        }();
        const uint64_t done = NowNs();
        ++log.attempted;
        const double latency = static_cast<double>(done - sent) / 1e3;
        log.done.push_back(Completion{done - start, latency, !write});
        if (write) {
          log.write_us.push_back(latency);
        } else {
          log.by_kind[kServeReadNames[kind]].push_back(latency);
        }
        if (!resp.ok() || !resp->status.ok()) {
          ++log.failed;  // Transport failure, shed or evaluation error.
          continue;
        }
        if (resp->Fingerprint() != *reference) {
          log.wrong.push_back(text);
          continue;
        }
        if (write) {
          ++log.writes_ok;
          if (acked.fetch_add(1) + 1 == kServeRssAtWrite) {
            pass.peak_rss_mb = PeakRssMb();
          }
        }
        log.queue_wait_us += static_cast<double>(resp->queue_wait_ns) / 1e3;
        if (traced) {
          const uint64_t c0 = NowNs();
          std::string wire;
          net::QueryResponse decoded;
          {
            lyric::obs::Span span("codec");
            wire = net::EncodeQueryResponse(*resp);
            (void)net::DecodeQueryResponse(wire, &decoded);
          }
          log.codec_us += static_cast<double>(NowNs() - c0) / 1e3;
          log.response_bytes += static_cast<double>(wire.size());
        }
      }
      log.spans = tracer.Totals();
      if (traced) log.chrome_trace = tracer.ChromeTraceJson();
    });
  }
  for (std::thread& t : threads) t.join();
  pass.writes_sent = writes.load();
  if (pass.peak_rss_mb == 0) pass.peak_rss_mb = PeakRssMb();
  return pass;
}

}  // namespace

bool RunServe(const Args& args, Report* report) {
  namespace fs = std::filesystem;
  StartRun(report);
  const std::string dir =
      args.work_dir + "/serve-store-" + std::to_string(args.seed);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  const std::string path = dir + "/office.lyricpg";
  {
    Database db;
    if (!BuildScaledDb(&db, kScaledDesks, kScaledDbSeed)) return false;
    storage::StoreOptions so;
    so.path = path;
    Result<std::unique_ptr<storage::PagedStore>> store =
        storage::PagedStore::Open(so);
    Status st = store.ok() ? (*store)->ImportDatabase(db) : store.status();
    if (st.ok()) st = (*store)->Close();
    if (!st.ok()) {
      std::cerr << "serve: seed store: " << st.ToString() << "\n";
      return false;
    }
  }
  const std::string pristine = dir + "/seeded.lyricpg";
  if (!CopyStore(path, pristine)) return false;

  // References: serial cache-off answers on a separately built instance,
  // for every read and every view box. A write's answer is its view's
  // SELECT.
  ServeReferences refs;
  {
    Database ref_db;
    if (!BuildScaledDb(&ref_db, kScaledDesks, kScaledDbSeed)) return false;
    SolverCache::Global().set_capacity(0);
    auto fingerprint = [&](const std::string& q) {
      Evaluator ev(&ref_db, PinnedOptions(1));
      return net::ResponseFromResult(ev.Execute(q)).Fingerprint();
    };
    for (int k = 0; k < kServeReadKinds; ++k) {
      refs.reads[k] = fingerprint(kServeReads[k]);
    }
    for (int64_t x = kViewXMin; x <= kViewXMax; ++x) {
      for (int64_t y = kViewYMin; y <= kViewYMax; ++y) {
        refs.views[{x, y}] = fingerprint(ServeViewSelect(x, y));
      }
    }
    ResetSolverCache();
  }

  Tracer boot_tracer(args.trace);
  uint64_t boots = 0;
  Booted booted;
  std::vector<double> open_ms, hydrate_ms;
  SetupTimer setup;
  auto boot = [&] {
    if (!Boot(path, &boot_tracer, boots++, &booted)) return false;
    open_ms.push_back(booted.open_ms);
    hydrate_ms.push_back(booted.hydrate_ms);
    return true;
  };
  if (!setup.Round(boot, [&] { booted.Shutdown(); })) return false;

  auto account = [&](const Pass& pass) {
    for (const ClientLog& log : pass.logs) {
      report->attempted += log.attempted;
      report->failed += log.failed;
      for (const std::string& w : log.wrong) {
        report->Wrong("serve answer differs from reference: " + w);
      }
    }
  };

  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const GrowthProbe g0 = GrowthProbe::Take();
  lyric::obs::MetricsSnapshot before =
      lyric::obs::Registry::Global().Snapshot();
  const Pass plain =
      DriveClosedLoop(booted.server.get(), args.seed, seconds, false, "V", refs);
  lyric::obs::MetricsSnapshot after =
      lyric::obs::Registry::Global().Snapshot();
  const GrowthProbe g1 = GrowthProbe::Take();
  account(plain);

  // Writes and their storage cost, per acknowledged write, from the
  // untraced pass.
  std::vector<double> writes;
  std::vector<Completion> done;
  double acked = 0;
  for (const ClientLog& log : plain.logs) {
    writes.insert(writes.end(), log.write_us.begin(), log.write_us.end());
    done.insert(done.end(), log.done.begin(), log.done.end());
    acked += static_cast<double>(log.writes_ok);
  }
  if (acked == 0) {
    std::cerr << "serve: no write was acknowledged (" << plain.writes_sent
              << " sent); the write metrics would not be measured\n";
    return false;
  }
  {
    const RegistryDelta d(before, after);
    report->Set("write_p50_us", Quantile(writes, 0.50), "us");
    report->Set("write_p99_us", Quantile(writes, 0.99), "us");
    report->Info("write_samples", acked);
    report->Set("io_bytes_per_write",
                d.Counter("storage.io.bytes_written") / acked, "bytes");
    report->Set("storage.sync_db_us",
                d.HistSumNs("storage.sync_db_ns") / 1e3 / acked, "us");
    report->Set("storage.commit_us",
                d.HistSumNs("storage.commit_ns") / 1e3 / acked, "us");
    report->Set("storage.wal_sync_us",
                d.HistSumNs("storage.wal.sync_ns") / 1e3 / acked, "us");
    report->Set("storage.fsyncs_per_write",
                d.Counter("storage.io.fsyncs") / acked, "count");
    report->Set("storage.page_reads_per_write",
                d.Counter("storage.page.reads") / acked, "count");
    report->Set("storage.page_writes_per_write",
                d.Counter("storage.page.writes") / acked, "count");
  }
  RecordGrowth(g0, g1, done.size(), report);
  SetQuietMetrics(done, report);
  report->Set("rss_peak_mb", plain.peak_rss_mb, "MiB");
  report->Info("desks", kScaledDesks);
  report->Info("exec_threads", 2);
  report->Info("connections", 2);
  report->Info("write_interval_ms", static_cast<double>(kServeWriteIntervalMs));
  std::map<std::string, std::vector<double>> by_kind;
  for (const ClientLog& log : plain.logs) {
    for (const auto& [kind, v] : log.by_kind) {
      by_kind[kind].insert(by_kind[kind].end(), v.begin(), v.end());
    }
  }
  for (const auto& [kind, v] : by_kind) {
    report->Info("p50_us." + kind, Quantile(v, 0.5));
  }

  if (args.trace) {
    // The traced pass starts, like the untraced one, from the seeded
    // store and a cleared cache.
    booted.Shutdown();
    if (!CopyStore(pristine, path) ||
        !Boot(path, &boot_tracer, boots++, &booted)) {
      return false;
    }
    ResetSolverCache();
    before = lyric::obs::Registry::Global().Snapshot();
    const Pass traced =
        DriveClosedLoop(booted.server.get(), args.seed, seconds, true, "T", refs);
    after = lyric::obs::Registry::Global().Snapshot();
    account(traced);
    double codec = 0, bytes = 0, queue_wait = 0, answered = 0, sent = 0;
    std::vector<SpanAggregate> aggs = {boot_tracer.Totals()};
    std::map<std::string, std::string> traces = {
        {"boot-trace", boot_tracer.ChromeTraceJson()}};
    double traced_sum = 0;
    for (size_t c = 0; c < traced.logs.size(); ++c) {
      const ClientLog& log = traced.logs[c];
      codec += log.codec_us;
      bytes += log.response_bytes;
      queue_wait += log.queue_wait_us;
      sent += static_cast<double>(log.attempted);
      answered +=
          static_cast<double>(log.attempted - log.failed - log.wrong.size());
      traced_sum += SumUs(log.done);
      aggs.push_back(log.spans);
      traces["client" + std::to_string(c) + "-trace"] = log.chrome_trace;
    }
    SetEngineLayerMetrics(RegistryDelta(before, after), sent, report);
    const double a = answered > 0 ? answered : 1;
    const SpanAggregate agg = Merge(aggs);
    report->Set("net.rtt_us", SelfUsPerQuery(agg, "Client::Execute", sent),
                "us");
    report->Set("net.codec_us", codec / a, "us");
    report->Set("net.response_bytes", bytes / a, "bytes");
    report->Set("exec.queue_wait_us", queue_wait / a, "us");
    report->Set("storage.open_ms", Median(open_ms), "ms");
    report->Set("storage.hydrate_ms", Median(hydrate_ms), "ms");
    // Mean request latency, traced over untraced.
    report->Set("trace.overhead_ratio",
                (traced_sum / sent) /
                        (SumUs(done) / static_cast<double>(done.size())) -
                    1,
                "ratio");
    const std::string prefix =
        args.work_dir + "/serve-seed" + std::to_string(args.seed);
    for (const std::string& p : WriteTraceFiles(traces, agg, prefix, sent)) {
      report->InfoStr("file." + p.substr(p.rfind('/') + 1), p);
    }
  }
  // The second set-up round boots the seeded store again, as it was
  // before the run's writes.
  booted.Shutdown();
  if (!CopyStore(pristine, path) ||
      !setup.Round(boot, [&] { booted.Shutdown(); })) {
    return false;
  }
  booted.Shutdown();
  report->Set("setup_s", setup.Value(), "s");
  fs::remove_all(dir, ec);
  return true;
}

}  // namespace perfbench
