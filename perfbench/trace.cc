#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

// "chunk[3]" -> "chunk": indexed stages aggregate under one name.
std::string StageName(const std::string& name) {
  const size_t bracket = name.find('[');
  return bracket == std::string::npos ? name : name.substr(0, bracket);
}

// The module each span's self time belongs to.
const char* LayerOf(const std::string& name) {
  static const std::map<std::string, const char*> kLayers = {
      {"query", "harness (between calls)"},
      {"boot", "harness (between calls)"},
      {"ParseQuery", "query/parser"},
      {"Evaluator::Execute", "query/evaluator"},
      {"from", "query/evaluator (FROM)"},
      {"where", "query/path_walker+formula_builder+constraint"},
      {"select", "query/evaluator (SELECT)"},
      {"construct_cst", "query/formula_builder+constraint/fm"},
      {"canonicalize", "constraint/canonical"},
      {"analyze", "query/analyzer"},
      {"admission.queue_wait", "exec/scheduler"},
      {"chunk", "exec/thread_pool (worker chunk)"},
      {"chunk_wait", "exec/thread_pool (merge wait)"},
      {"chunk_merge", "exec/thread_pool (merge)"},
      {"ResultSet::ToString", "query/result_set"},
      {"Client::Execute", "net/client+server"},
      {"codec", "net/frame"},
      {"PagedStore::Open", "storage/paged_store+wal"},
      {"ExportToDatabase", "storage/paged_store+btree"},
      {"Server::Start", "net/server"},
  };
  auto it = kLayers.find(name);
  return it == kLayers.end() ? "?" : it->second;
}

void AddNode(const lyric::obs::SpanNode& node, SpanAggregate* agg) {
  uint64_t child_ns = 0;
  for (const auto& child : node.children) {
    AddNode(*child, agg);
    child_ns += child->dur_ns;
  }
  SpanTotals& totals = (*agg)[StageName(node.name)];
  ++totals.count;
  totals.self_ns += node.dur_ns > child_ns ? node.dur_ns - child_ns : 0;
}

// Adds the self times of a collector's spans (its root excluded) to `agg`.
void Fold(const lyric::obs::TraceCollector& collector, SpanAggregate* agg) {
  // The root only spans the collector's lifetime; worker lane containers
  // are bookkeeping. Worker spans run beside the query thread, so their
  // time is not subtracted from any query-thread span.
  for (const auto& child : collector.root().children) AddNode(*child, agg);
  for (const auto& lane : collector.worker_lanes()) {
    for (const auto& span : lane.spans->children) AddNode(*span, agg);
  }
}

}  // namespace

Tracer::Root::Root(Tracer* tracer, const char* name, uint64_t id)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  lyric::obs::TraceCollector* collector = &tracer_->kept_;
  if (tracer_->roots_++ >= tracer_->kept_roots_) {
    own_ = std::make_unique<lyric::obs::TraceCollector>();
    collector = own_.get();
  }
  session_.emplace(collector);
  span_.emplace(name, id);
}

Tracer::Root::~Root() {
  span_.reset();
  session_.reset();
  if (own_ != nullptr) Fold(*own_, &tracer_->folded_);
}

SpanAggregate Tracer::Totals() const {
  SpanAggregate totals = folded_;
  Fold(kept_, &totals);
  return totals;
}

SpanAggregate Merge(const std::vector<SpanAggregate>& aggs) {
  SpanAggregate merged;
  for (const SpanAggregate& agg : aggs) {
    for (const auto& [name, totals] : agg) {
      merged[name].count += totals.count;
      merged[name].self_ns += totals.self_ns;
    }
  }
  return merged;
}

double SelfUsPerQuery(const SpanAggregate& agg, const std::string& name,
                      double queries) {
  auto it = agg.find(name);
  if (it == agg.end() || queries <= 0) return 0;
  return static_cast<double>(it->second.self_ns) / 1e3 / queries;
}

std::vector<std::string> WriteTraceFiles(
    const std::map<std::string, std::string>& traces, const SpanAggregate& agg,
    const std::string& prefix, double queries) {
  std::vector<std::string> paths;
  for (const auto& [key, json] : traces) {
    paths.push_back(prefix + "-" + key + ".json");
    std::ofstream out(paths.back());
    out << json;
    if (!out) return {};
  }
  paths.push_back(prefix + "-layers.txt");
  std::ofstream table(paths.back());
  table << "# self time per span over " << queries
        << " traced queries (spans of the first queries are in the "
           "trace files beside this one)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s %-48s %10s %12s %14s\n", "span",
                "layer", "count", "self_ms", "self_us/query");
  table << line;
  for (const auto& [name, totals] : agg) {
    std::snprintf(line, sizeof(line), "%-22s %-48s %10llu %12.3f %14.3f\n",
                  name.c_str(), LayerOf(name),
                  static_cast<unsigned long long>(totals.count),
                  static_cast<double>(totals.self_ns) / 1e6,
                  SelfUsPerQuery(agg, name, queries));
    table << line;
  }
  if (!table) return {};
  return paths;
}

}  // namespace perfbench
