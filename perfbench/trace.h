// The benchmark's own spans, recorded with the engine's obs tracing. A
// Tracer installs an obs::TraceCollector on the recording thread while a
// Root is open, and the harness wraps each public call it makes
// (ParseQuery, Evaluator::Execute, ResultSet::ToString, Client::Execute,
// the frame codec, PagedStore::Open, ExportToDatabase, Server::Start) in an
// obs::Span. The evaluator's own stage spans (the tree collect_trace
// returns) land in the same collector, nested under Evaluator::Execute,
// and its worker chunks in the collector's worker lanes. Each query is one
// Root span "query[<id>]", so the spans of a query share its id; a span's
// self time is its duration minus that of its children.
//
// The first `kept_roots` roots stay in one collector, written out at the
// end by the engine's Chrome trace exporter. Every later root gets a
// collector of its own, folded into the self-time totals and dropped, so
// a long traced run keeps bounded memory.
#ifndef LYRIC_PERFBENCH_TRACE_H_
#define LYRIC_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Self time and count per span name ("where[3]" counts as "where").
struct SpanTotals {
  uint64_t count = 0;
  uint64_t self_ns = 0;
};
using SpanAggregate = std::map<std::string, SpanTotals>;

/// One recording thread's spans. Single owner: Roots open and close on the
/// thread that owns the tracer. A disabled tracer records nothing, and the
/// harness's obs::Spans then cost one thread_local load each.
class Tracer {
 public:
  explicit Tracer(bool enabled, size_t kept_roots = 200)
      : enabled_(enabled), kept_roots_(kept_roots) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII root span `name[id]` (one query, or one boot). Spans opened on
  /// this thread while it lives are recorded under it.
  class Root {
   public:
    Root(Tracer* tracer, const char* name, uint64_t id);
    ~Root();
    Root(const Root&) = delete;
    Root& operator=(const Root&) = delete;

   private:
    Tracer* tracer_;
    std::unique_ptr<lyric::obs::TraceCollector> own_;
    std::optional<lyric::obs::ScopedTraceSession> session_;
    std::optional<lyric::obs::Span> span_;
  };

  /// Self time per span name over every root so far.
  SpanAggregate Totals() const;
  /// The kept roots as Chrome trace_event JSON.
  std::string ChromeTraceJson() const { return kept_.ToChromeTraceJson(); }

 private:
  bool enabled_;
  size_t kept_roots_;
  size_t roots_ = 0;
  lyric::obs::TraceCollector kept_;
  SpanAggregate folded_;  ///< Roots recorded in their own collectors.
};

/// Sums several aggregates.
SpanAggregate Merge(const std::vector<SpanAggregate>& aggs);

/// Mean self time per query of span `name`, in microseconds.
double SelfUsPerQuery(const SpanAggregate& agg, const std::string& name,
                      double queries);

/// Writes each Chrome trace in `traces` to `<prefix>-<key>.json` and the
/// self-time table of `agg` to `<prefix>-layers.txt`. Returns the paths
/// written, or an empty vector on an I/O failure.
std::vector<std::string> WriteTraceFiles(
    const std::map<std::string, std::string>& traces, const SpanAggregate& agg,
    const std::string& prefix, double queries);

}  // namespace perfbench

#endif  // LYRIC_PERFBENCH_TRACE_H_
