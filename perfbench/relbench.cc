// relbench: runs one benchmark workload in this process and prints its
// result as the last line of standard output.
//
//   relbench --workload <fem_disk|seg_churn|label_mix|dist_loopback>
//            --seed <n> (--seconds <s> | --rounds <r>) --trace <0|1>
//            --workdir <dir> [--trace-out <file>]
//
// Every workload generates its inputs from the seed, drives the engine only
// through its public API as one closed-loop client, checks every answer
// against a Dijkstra oracle over the benchmark's own edge list, and times
// only the engine calls. `--rounds` replaces the clock with a fixed number
// of rounds, so the determinism check can compare counts exactly.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/common/rng.h"
#include "src/core/path_finder.h"
#include "src/core/segtable.h"
#include "src/db/database.h"
#include "src/dist/dist_path_finder.h"
#include "src/dist/sharded_graph.h"
#include "src/graph/generators.h"
#include "src/graph/graph_store.h"
#include "src/labels/label_builder.h"
#include "src/labels/labeled_path_finder.h"
#include "src/net/shard_server.h"

namespace perfbench {
namespace {

using namespace relgraph;  // NOLINT: the driver speaks the engine's API

// ---------------------------------------------------------------------------
// Workload sizes. Each run repeats its set-up kSetups times and reports the
// median, so one slow set-up does not move setup_s.
// ---------------------------------------------------------------------------
constexpr int kSetups = 3;

// fem_disk: §5.1 random graph, file-backed, pool at most 1/8 of the pages.
constexpr int64_t kFemNodes = 50'000;
constexpr size_t kFemPoolPages = 512;
constexpr int kFemWarmup = 10;

// seg_churn: random graph that fits its pool, SegTable with lthd = 20.
constexpr int64_t kSegNodes = 10'000;
constexpr size_t kSegPoolPages = 8192;
constexpr weight_t kSegLthd = 20;
constexpr int kSegUpdatesPerRound = 4;  // then one BSEG path query
constexpr int kSegWarmup = 5;

// label_mix: complete hub labels over one fixed Barabási–Albert graph; the
// seed draws only the queries. Label size depends strongly on the graph at
// this size (eight generator seeds gave 7.6k-9.7k entries and 23-43 us
// probes), which a seeded graph would turn into run-to-run spread.
constexpr int64_t kLabelNodes = 400;
constexpr uint64_t kLabelGraphSeed = 0;
constexpr int64_t kLabelDegree = 3;
constexpr int kLabelDistancesPerRound = 10;  // then one full-path query
constexpr int kLabelWarmup = 5;

// dist_loopback: BA graph over two loopback shard servers.
constexpr int64_t kDistNodes = 4'000;
constexpr int64_t kDistDegree = 3;
constexpr int kDistShards = 2;
constexpr int kDistWarmup = 10;

// ---------------------------------------------------------------------------
// Per-layer metrics, in the order BENCHMARK.json lists them. A layer the
// workload does not run reads 0.
// ---------------------------------------------------------------------------
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"graph.load_s", "s"},
    {"graph.mutate_ms", "ms"},
    {"storage.page_requests_per_path", "count/path"},
    {"storage.hit_rate", "ratio"},
    {"storage.misses_per_path", "count/path"},
    {"storage.disk_reads_per_path", "count/path"},
    {"storage.setup_writebacks", "count"},
    {"storage.db_pages", "pages"},
    {"core.find_ms", "ms"},
    {"core.expansions_per_path", "count/path"},
    {"core.statements_per_path", "count/path"},
    {"core.visited_rows_per_path", "count/path"},
    {"core.pe_ms", "ms"},
    {"core.sc_ms", "ms"},
    {"core.fpr_ms", "ms"},
    {"exec.f_ms", "ms"},
    {"exec.e_ms", "ms"},
    {"exec.m_ms", "ms"},
    {"segtable.build_s", "s"},
    {"segtable.entries", "count"},
    {"segtable.build_statements", "count"},
    {"segtable.insert_ms", "ms"},
    {"segtable.delete_ms", "ms"},
    {"segtable.changed_rows_per_update", "count/update"},
    {"labels.build_s", "s"},
    {"labels.build_statements", "count"},
    {"labels.build_rounds", "count"},
    {"labels.entries", "count"},
    {"labels.probe_ms", "ms"},
    {"labels.distance_queries", "count"},
    {"labels.hit_ratio", "ratio"},
    {"sql.find_ms", "ms"},
    {"sql.statements_per_path", "count/path"},
    {"sql.prepares_per_path", "count/path"},
    {"dist.rounds_per_path", "count/path"},
    {"dist.shard_statements_per_path", "count/path"},
    {"dist.coordinator_statements_per_path", "count/path"},
    {"dist.rows_shipped_per_path", "count/path"},
    {"dist.local_round_us", "us"},
    {"net.round_us", "us"},
    {"net.wire_tax_us", "us"},
    {"net.requests_served", "count"},
    {"net.retries", "count"},
    {"net.failovers", "count"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int64_t rounds = -1;  // >= 0: run exactly this many measured rounds
  bool trace = false;
  std::string workdir = ".";
  std::string trace_out;
};

class Run {
 public:
  explicit Run(Args args) : args(std::move(args)), tracer(this->args.trace) {}

  Args args;
  Tracer tracer;

  bool measuring = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  std::vector<double> setup_s;
  Samples path_ms, distance_ms, update_ms;
  int64_t completed = 0;  // measured operations that succeeded
  double busy_ms = 0;     // time inside engine calls, measured phase
  int64_t rounds = 0;
  double store_bytes = 0;
  int64_t base_edges = 0;
  Fingerprint inputs;
  std::map<std::string, double> layer;
  int64_t next_op = 0;

  // Numbers the next operation; its spans carry the number.
  int64_t NewOp() { return next_op++; }

  void Fatal(const Status& st, const char* what) {
    std::fprintf(stderr, "relbench %s: %s failed: %s\n",
                 args.workload.c_str(), what, st.ToString().c_str());
    std::exit(1);
  }
  void Must(const Status& st, const char* what) {
    if (!st.ok()) Fatal(st, what);
  }

  // An engine call that returned an error: the operation failed.
  void Failed(const Status& st, const char* what) {
    failed++;
    Note(std::string(what) + ": " + st.ToString());
  }
  // A wrong answer or a broken property: failed, and the run is incorrect.
  void Wrong(const std::string& why) {
    failed++;
    correct = false;
    Note(why);
  }
  void Note(const std::string& why) {
    if (problems.size() < 10) problems.push_back(why);
  }

  // Records one successful operation's latency.
  void Done(Samples* samples, double ms) {
    if (!measuring) return;
    samples->Add(ms);
    completed++;
    busy_ms += ms;
  }

  // Warm-up rounds (not timed), then `start`, then whole rounds until the
  // measured time is used up, or exactly args.rounds rounds.
  void Drive(int warmup, const std::function<void()>& round,
             const std::function<void()>& start = [] {}) {
    for (int i = 0; i < warmup; i++) round();
    start();
    measuring = true;
    Clock::time_point t0 = Clock::now();
    while (args.rounds >= 0
               ? rounds < args.rounds
               : rounds == 0 || MsBetween(t0, Clock::now()) < args.seconds * 1e3) {
      round();
      rounds++;
    }
    measuring = false;
  }

  // Checks one answer against the oracle (not timed). False when wrong.
  // `path` is null for distance-only answers.
  bool Verify(Oracle* oracle, node_id_t s, node_id_t t, bool found,
              weight_t distance, const std::vector<node_id_t>* path) {
    std::string why = oracle->Check(s, t, found, distance, path);
    if (why.empty()) return true;
    Wrong("query " + std::to_string(s) + " -> " + std::to_string(t) + ": " +
          why);
    return false;
  }

  template <typename F>
  void TimedSetup(F body) {
    ScopedSpan span(&tracer, "bench.setup");
    Clock::time_point t0 = Clock::now();
    body();
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
};

// Distinct (s, t) pairs drawn from the seed.
class PairStream {
 public:
  PairStream(int64_t n, uint64_t seed, Fingerprint* fp)
      : n_(n), rng_(seed), fp_(fp) {}
  std::pair<node_id_t, node_id_t> Next() {
    while (true) {
      node_id_t s = rng_.NextInt(0, n_ - 1);
      node_id_t t = rng_.NextInt(0, n_ - 1);
      if (s == t) continue;
      if (drawn_++ < 64) {
        fp_->Add(s);
        fp_->Add(t);
      }
      return {s, t};
    }
  }

 private:
  int64_t n_;
  Rng rng_;
  Fingerprint* fp_;
  int64_t drawn_ = 0;
};

void AttachQueryStats(ScopedSpan* span, const QueryStats& qs) {
  span->Attr("expansions", static_cast<double>(qs.expansions));
  span->Attr("statements", static_cast<double>(qs.statements));
  span->Attr("visited_rows", static_cast<double>(qs.visited_rows));
  span->Attr("buffer_hits", static_cast<double>(qs.buffer_hits));
  span->Attr("buffer_misses", static_cast<double>(qs.buffer_misses));
  span->Attr("disk_reads", static_cast<double>(qs.disk_reads));
  span->Attr("pe_us", static_cast<double>(qs.path_expansion_us));
  span->Attr("sc_us", static_cast<double>(qs.stat_collection_us));
  span->Attr("fpr_us", static_cast<double>(qs.path_recovery_us));
}

// Sums of the QueryStats of the measured path queries.
struct PathTotals {
  int64_t paths = 0;
  QueryStats sum;
  void Add(const QueryStats& qs) {
    paths++;
    sum.expansions += qs.expansions;
    sum.statements += qs.statements;
    sum.visited_rows += qs.visited_rows;
    sum.path_expansion_us += qs.path_expansion_us;
    sum.stat_collection_us += qs.stat_collection_us;
    sum.path_recovery_us += qs.path_recovery_us;
    sum.f_operator_us += qs.f_operator_us;
    sum.e_operator_us += qs.e_operator_us;
    sum.m_operator_us += qs.m_operator_us;
  }
  double Per(int64_t v) const {
    return paths == 0 ? 0.0 : static_cast<double>(v) / paths;
  }
  // The core and exec metrics of native PathFinder queries.
  void Report(Run* run) const {
    auto& L = run->layer;
    L["core.expansions_per_path"] = Per(sum.expansions);
    L["core.statements_per_path"] = Per(sum.statements);
    L["core.visited_rows_per_path"] = Per(sum.visited_rows);
    L["core.pe_ms"] = Per(sum.path_expansion_us) / 1e3;
    L["core.sc_ms"] = Per(sum.stat_collection_us) / 1e3;
    L["core.fpr_ms"] = Per(sum.path_recovery_us) / 1e3;
    L["exec.f_ms"] = Per(sum.f_operator_us) / 1e3;
    L["exec.e_ms"] = Per(sum.e_operator_us) / 1e3;
    L["exec.m_ms"] = Per(sum.m_operator_us) / 1e3;
  }
};

// Buffer-pool and disk traffic summed over every database a workload serves
// from. Taken before and after the measured phase, the difference covers all
// of its page work, which the storage metrics divide by its path queries.
struct PageTraffic {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t reads = 0;

  static PageTraffic Of(const std::vector<Database*>& dbs) {
    PageTraffic t;
    for (Database* db : dbs) {
      t.hits += db->buffer_pool()->stats().hits;
      t.misses += db->buffer_pool()->stats().misses;
      t.reads += db->disk()->stats().reads;
    }
    return t;
  }

  static void Report(Run* run, const PageTraffic& before,
                     const PageTraffic& after, int64_t paths) {
    const int64_t hits = after.hits - before.hits;
    const int64_t requests = hits + after.misses - before.misses;
    auto per = [&](int64_t v) {
      return paths == 0 ? 0.0 : static_cast<double>(v) / paths;
    };
    auto& L = run->layer;
    L["storage.page_requests_per_path"] = per(requests);
    L["storage.hit_rate"] =
        requests == 0 ? 0.0 : static_cast<double>(hits) / requests;
    L["storage.misses_per_path"] = per(after.misses - before.misses);
    L["storage.disk_reads_per_path"] = per(after.reads - before.reads);
  }
};

// Runs one native PathFinder query and records it (timing, stats, answer).
void NativePathQuery(Run* run, PathFinder* finder, node_id_t s, node_id_t t,
                     PathTotals* totals, Oracle* oracle) {
  ScopedSpan op(&run->tracer, "bench.op", run->NewOp());
  run->attempted++;
  PathQueryResult r;
  Status st;
  double ms = 0;
  {
    ScopedSpan call(&run->tracer, "core.find");
    Clock::time_point t0 = Clock::now();
    st = finder->Find(s, t, &r);
    ms = MsBetween(t0, Clock::now());
    AttachQueryStats(&call, r.stats);
  }
  if (!st.ok()) return run->Failed(st, "PathFinder::Find");
  if (!run->Verify(oracle, s, t, r.found, r.distance, &r.path)) return;
  run->Done(&run->path_ms, ms);
  if (run->measuring) totals->Add(r.stats);
}

// ---------------------------------------------------------------------------
// fem_disk
// ---------------------------------------------------------------------------
void FemDisk(Run* run) {
  EdgeList list = GenerateRandomGraph(kFemNodes, 4 * kFemNodes,
                                      WeightRange{1, 100}, Mix(run->args.seed));
  run->inputs.AddEdges(list);
  run->base_edges = static_cast<int64_t>(list.edges.size());

  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<PathFinder> finder;
  std::vector<double> load_s;
  for (int i = 0; i < kSetups; i++) {
    finder.reset();
    graph.reset();
    db.reset();
    DatabaseOptions opts;
    opts.in_memory = false;
    opts.buffer_pool_pages = kFemPoolPages;
    opts.path = (std::filesystem::path(run->args.workdir) /
                 ("fem_disk-" + std::to_string(::getpid()) + "-" +
                  std::to_string(i) + ".db"))
                    .string();
    run->TimedSetup([&] {
      db = std::make_unique<Database>(opts);
      {
        ScopedSpan span(&run->tracer, "graph.load");
        Clock::time_point t0 = Clock::now();
        run->Must(GraphStore::Create(db.get(), list, GraphStoreOptions{}, &graph),
                  "GraphStore::Create");
        load_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      }
      ScopedSpan span(&run->tracer, "core.create");
      PathFinderOptions popts;
      popts.algorithm = Algorithm::kBSDJ;
      run->Must(PathFinder::Create(graph.get(), popts, &finder),
                "PathFinder::Create");
    });
  }
  const int64_t pages = db->disk()->num_pages();
  if (static_cast<int64_t>(kFemPoolPages) * 8 > pages) {
    std::fprintf(stderr, "relbench fem_disk: pool of %zu pages is more than "
                 "an eighth of %lld database pages\n", kFemPoolPages,
                 static_cast<long long>(pages));
    std::exit(1);
  }
  run->layer["graph.load_s"] = Median(load_s);
  run->layer["storage.db_pages"] = static_cast<double>(pages);
  run->layer["storage.setup_writebacks"] =
      static_cast<double>(db->buffer_pool()->stats().dirty_writebacks);
  run->store_bytes = static_cast<double>(pages) * kPageSize;

  Oracle oracle(list);
  PairStream pairs(kFemNodes, Mix(run->args.seed + 1), &run->inputs);
  PathTotals totals;
  PageTraffic before;
  run->Drive(
      kFemWarmup,
      [&] {
        auto [s, t] = pairs.Next();
        NativePathQuery(run, finder.get(), s, t, &totals, &oracle);
      },
      [&] { before = PageTraffic::Of({db.get()}); });
  PageTraffic::Report(run, before, PageTraffic::Of({db.get()}), totals.paths);
  totals.Report(run);
  run->layer["core.find_ms"] = run->path_ms.Mean();
}

// ---------------------------------------------------------------------------
// seg_churn
// ---------------------------------------------------------------------------
void SegChurn(Run* run) {
  EdgeList list = GenerateRandomGraph(kSegNodes, 4 * kSegNodes,
                                      WeightRange{1, 100}, Mix(run->args.seed));
  run->inputs.AddEdges(list);
  run->base_edges = static_cast<int64_t>(list.edges.size());

  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<SegTable> seg;
  std::unique_ptr<PathFinder> finder;
  std::vector<double> load_s, build_s;
  SegTableBuildStats bstats;
  for (int i = 0; i < kSetups; i++) {
    finder.reset();
    seg.reset();
    graph.reset();
    db.reset();
    DatabaseOptions opts;
    opts.buffer_pool_pages = kSegPoolPages;
    run->TimedSetup([&] {
      db = std::make_unique<Database>(opts);
      {
        ScopedSpan span(&run->tracer, "graph.load");
        Clock::time_point t0 = Clock::now();
        run->Must(GraphStore::Create(db.get(), list, GraphStoreOptions{}, &graph),
                  "GraphStore::Create");
        load_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      }
      {
        ScopedSpan span(&run->tracer, "segtable.build");
        SegTableOptions sopts;
        sopts.lthd = kSegLthd;
        bstats = SegTableBuildStats{};
        Clock::time_point t0 = Clock::now();
        run->Must(SegTable::Build(db.get(), graph.get(), sopts, &seg, &bstats),
                  "SegTable::Build");
        build_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
        span.Attr("entries", static_cast<double>(bstats.out_entries +
                                                 bstats.in_entries));
        span.Attr("statements", static_cast<double>(bstats.statements));
      }
      ScopedSpan span(&run->tracer, "core.create");
      PathFinderOptions popts;
      popts.algorithm = Algorithm::kBSEG;
      run->Must(PathFinder::Create(graph.get(), popts, &finder, seg.get()),
                "PathFinder::Create");
    });
  }
  const int64_t pages = db->disk()->num_pages();
  if (pages > static_cast<int64_t>(kSegPoolPages)) {
    std::fprintf(stderr, "relbench seg_churn: %lld database pages do not fit "
                 "the %zu-page pool\n", static_cast<long long>(pages),
                 kSegPoolPages);
    std::exit(1);
  }
  auto& L = run->layer;
  L["graph.load_s"] = Median(load_s);
  L["segtable.build_s"] = Median(build_s);
  L["segtable.entries"] =
      static_cast<double>(bstats.out_entries + bstats.in_entries);
  L["segtable.build_statements"] = static_cast<double>(bstats.statements);
  L["storage.db_pages"] = static_cast<double>(pages);
  L["storage.setup_writebacks"] =
      static_cast<double>(db->buffer_pool()->stats().dirty_writebacks);
  run->store_bytes = static_cast<double>(pages) * kPageSize;

  Oracle oracle(list);
  PairStream pairs(kSegNodes, Mix(run->args.seed + 1), &run->inputs);
  Rng mut(Mix(run->args.seed + 2));
  PathTotals totals;
  Samples mutate_ms, insert_ms, delete_ms;
  int64_t changed_rows = 0, updates = 0, fingerprinted = 0;

  // One edge mutation and its SegTable maintenance, timed as one operation.
  auto update = [&](bool insert) {
    ScopedSpan op(&run->tracer, "bench.op", run->NewOp());
    run->attempted++;
    Edge e;
    size_t victim = 0;
    if (insert) {
      e.from = mut.NextInt(0, kSegNodes - 1);
      do {
        e.to = mut.NextInt(0, kSegNodes - 1);
      } while (e.to == e.from);
      e.weight = mut.NextInt(1, 100);
    } else {
      victim = mut.NextBounded(oracle.list().edges.size());
      e = oracle.list().edges[victim];
    }
    if (fingerprinted++ < 64) {
      run->inputs.Add(e.from);
      run->inputs.Add(e.to);
      run->inputs.Add(e.weight);
    }
    Status st;
    int64_t changed = 0;
    Clock::time_point t0 = Clock::now(), t1, t2, t3;
    {
      ScopedSpan span(&run->tracer, "graph.mutate");
      st = insert ? graph->AddEdge(e) : graph->RemoveEdge(e);
      t1 = Clock::now();
    }
    if (!st.ok()) return run->Failed(st, insert ? "AddEdge" : "RemoveEdge");
    if (insert) {
      oracle.Add(e);
    } else {
      oracle.RemoveAt(victim);
    }
    {
      ScopedSpan span(&run->tracer, insert ? "segtable.insert" : "segtable.delete");
      t2 = Clock::now();
      st = insert ? seg->ApplyEdgeInsertion(e, &changed)
                  : seg->ApplyEdgeDeletion(graph.get(), e, &changed);
      t3 = Clock::now();
      span.Attr("changed_rows", static_cast<double>(changed));
    }
    if (!st.ok()) {
      return run->Failed(st, insert ? "ApplyEdgeInsertion" : "ApplyEdgeDeletion");
    }
    run->Done(&run->update_ms, MsBetween(t0, t1) + MsBetween(t2, t3));
    if (run->measuring) {
      mutate_ms.Add(MsBetween(t0, t1));
      (insert ? insert_ms : delete_ms).Add(MsBetween(t2, t3));
      changed_rows += changed;
      updates++;
    }
  };

  // Inserts and deletes alternate, so the edge count stays put.
  PageTraffic before;
  run->Drive(
      kSegWarmup,
      [&] {
        for (int i = 0; i < kSegUpdatesPerRound; i++) update(i % 2 == 0);
        auto [s, t] = pairs.Next();
        NativePathQuery(run, finder.get(), s, t, &totals, &oracle);
      },
      [&] { before = PageTraffic::Of({db.get()}); });
  PageTraffic::Report(run, before, PageTraffic::Of({db.get()}), totals.paths);
  totals.Report(run);
  L["core.find_ms"] = run->path_ms.Mean();
  L["graph.mutate_ms"] = mutate_ms.Mean();
  L["segtable.insert_ms"] = insert_ms.Mean();
  L["segtable.delete_ms"] = delete_ms.Mean();
  L["segtable.changed_rows_per_update"] =
      updates == 0 ? 0.0 : static_cast<double>(changed_rows) / updates;
}

// ---------------------------------------------------------------------------
// label_mix
// ---------------------------------------------------------------------------
void LabelMix(Run* run) {
  EdgeList list = GenerateBarabasiAlbert(kLabelNodes, kLabelDegree,
                                         WeightRange{1, 100}, Mix(kLabelGraphSeed));
  run->inputs.AddEdges(list);
  run->base_edges = static_cast<int64_t>(list.edges.size());

  std::unique_ptr<Database> db;
  std::unique_ptr<GraphStore> graph;
  std::unique_ptr<LabelIndex> labels;
  std::unique_ptr<LabeledPathFinder> finder;
  std::vector<double> load_s, build_s;
  LabelBuildStats bstats;
  for (int i = 0; i < kSetups; i++) {
    finder.reset();
    labels.reset();
    graph.reset();
    db.reset();
    run->TimedSetup([&] {
      db = std::make_unique<Database>(DatabaseOptions{});
      {
        ScopedSpan span(&run->tracer, "graph.load");
        Clock::time_point t0 = Clock::now();
        run->Must(GraphStore::Create(db.get(), list, GraphStoreOptions{}, &graph),
                  "GraphStore::Create");
        load_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      }
      {
        ScopedSpan span(&run->tracer, "labels.build");
        bstats = LabelBuildStats{};
        Clock::time_point t0 = Clock::now();
        run->Must(LabelBuilder::Build(graph.get(), "", LabelBuildOptions{},
                                      &labels, &bstats),
                  "LabelBuilder::Build");
        build_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
        span.Attr("entries", static_cast<double>(bstats.entries));
        span.Attr("statements", static_cast<double>(bstats.statements));
        span.Attr("rounds", static_cast<double>(bstats.rounds));
      }
      ScopedSpan span(&run->tracer, "sql.create");
      run->Must(LabeledPathFinder::Create(graph.get(), labels.get(),
                                          LabeledPathFinderOptions{}, &finder),
                "LabeledPathFinder::Create");
    });
  }
  if (!labels->complete()) {
    run->Wrong("label index is not complete after a full build");
  }
  const int64_t pages = db->disk()->num_pages();
  auto& L = run->layer;
  L["graph.load_s"] = Median(load_s);
  L["labels.build_s"] = Median(build_s);
  L["labels.build_statements"] = static_cast<double>(bstats.statements);
  L["labels.build_rounds"] = static_cast<double>(bstats.rounds);
  L["labels.entries"] = static_cast<double>(bstats.entries);
  L["storage.db_pages"] = static_cast<double>(pages);
  L["storage.setup_writebacks"] =
      static_cast<double>(db->buffer_pool()->stats().dirty_writebacks);
  run->store_bytes = static_cast<double>(pages) * kPageSize;

  Oracle oracle(list);
  PairStream pairs(kLabelNodes, Mix(run->args.seed + 1), &run->inputs);
  PathTotals totals;
  int64_t distance_queries = 0;
  LabelServeCounters before;
  int64_t prepares_before = 0;
  PageTraffic pages_before;

  auto distance = [&] {
    auto [s, t] = pairs.Next();
    ScopedSpan op(&run->tracer, "bench.op", run->NewOp());
    run->attempted++;
    PathQueryResult r;
    bool served = false;
    Status st;
    double ms = 0;
    {
      ScopedSpan call(&run->tracer, "labels.distance");
      Clock::time_point t0 = Clock::now();
      st = finder->Distance(s, t, &r, &served);
      ms = MsBetween(t0, Clock::now());
      call.Attr("served_from_labels", served ? 1 : 0);
    }
    if (run->measuring) distance_queries++;
    if (!st.ok()) return run->Failed(st, "LabeledPathFinder::Distance");
    if (!served) {
      return run->Wrong("distance " + std::to_string(s) + " -> " +
                        std::to_string(t) +
                        " was not served from the complete, fresh labels");
    }
    if (!run->Verify(&oracle, s, t, r.found, r.distance, nullptr)) return;
    run->Done(&run->distance_ms, ms);
  };
  auto path = [&] {
    auto [s, t] = pairs.Next();
    ScopedSpan op(&run->tracer, "bench.op", run->NewOp());
    run->attempted++;
    PathQueryResult r;
    Status st;
    double ms = 0;
    {
      ScopedSpan call(&run->tracer, "sql.find");
      Clock::time_point t0 = Clock::now();
      st = finder->Find(s, t, &r);
      ms = MsBetween(t0, Clock::now());
      AttachQueryStats(&call, r.stats);
    }
    if (!st.ok()) return run->Failed(st, "LabeledPathFinder::Find");
    if (!run->Verify(&oracle, s, t, r.found, r.distance, &r.path)) return;
    run->Done(&run->path_ms, ms);
    if (run->measuring) totals.Add(r.stats);
  };
  run->Drive(
      kLabelWarmup,
      [&] {
        for (int i = 0; i < kLabelDistancesPerRound; i++) distance();
        path();
      },
      [&] {
        before = finder->counters();
        prepares_before = db->stats().prepares.load();
        pages_before = PageTraffic::Of({db.get()});
      });
  PageTraffic::Report(run, pages_before, PageTraffic::Of({db.get()}),
                      totals.paths);
  const LabelServeCounters& after = finder->counters();
  L["labels.probe_ms"] = run->distance_ms.Mean();
  L["labels.distance_queries"] = static_cast<double>(distance_queries);
  L["labels.hit_ratio"] =
      distance_queries == 0
          ? 0.0
          : static_cast<double>(after.label_hits - before.label_hits) /
                distance_queries;
  L["sql.find_ms"] = run->path_ms.Mean();
  L["sql.statements_per_path"] = totals.Per(totals.sum.statements);
  L["sql.prepares_per_path"] =
      totals.Per(db->stats().prepares.load() - prepares_before);
}

// ---------------------------------------------------------------------------
// dist_loopback
// ---------------------------------------------------------------------------

// Pins the whole process (threads started later inherit it) to the highest
// CPU it may run on: loopback round trips between unpinned threads were the
// largest source of run-to-run spread.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(::getpid(), sizeof(one), &one) != 0) {
    std::fprintf(stderr, "relbench: sched_setaffinity failed: %s\n",
                 std::strerror(errno));
    std::exit(1);
  }
}

void DistLoopback(Run* run) {
  PinToOneCpu();
  EdgeList list = GenerateBarabasiAlbert(kDistNodes, kDistDegree,
                                         WeightRange{1, 100}, Mix(run->args.seed));
  run->inputs.AddEdges(list);
  run->base_edges = static_cast<int64_t>(list.edges.size());

  std::unique_ptr<ShardedGraphStore> store;
  std::vector<std::unique_ptr<net::ShardServer>> servers;
  std::unique_ptr<DistPathFinder> finder;
  std::vector<double> load_s;
  for (int i = 0; i < kSetups; i++) {
    finder.reset();
    servers.clear();
    store.reset();
    run->TimedSetup([&] {
      {
        ScopedSpan span(&run->tracer, "graph.load");
        ShardedGraphOptions sopts;
        sopts.num_shards = kDistShards;
        Clock::time_point t0 = Clock::now();
        run->Must(ShardedGraphStore::Create(list, sopts, &store),
                  "ShardedGraphStore::Create");
        load_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
      }
      DistOptions dopts;
      dopts.num_threads = 0;
      {
        ScopedSpan span(&run->tracer, "net.start");
        for (int s = 0; s < kDistShards; s++) {
          net::ShardServerOptions opts;
          opts.workers = 1;
          std::unique_ptr<net::ShardServer> server;
          run->Must(net::ShardServer::Start(store.get(), s, opts, &server),
                    "ShardServer::Start");
          dopts.shard_endpoints.push_back("127.0.0.1:" +
                                          std::to_string(server->port()));
          servers.push_back(std::move(server));
        }
      }
      ScopedSpan span(&run->tracer, "dist.create");
      run->Must(DistPathFinder::Create(store.get(), &finder, dopts),
                "DistPathFinder::Create");
    });
  }
  int64_t pages = 0;
  for (int s = 0; s < kDistShards; s++) {
    pages += store->shard_db(s)->disk()->num_pages();
  }
  pages += finder->coordinator_db()->disk()->num_pages();
  auto& L = run->layer;
  L["graph.load_s"] = Median(load_s);
  L["storage.db_pages"] = static_cast<double>(pages);
  int64_t writebacks = 0;
  for (int s = 0; s < kDistShards; s++) {
    writebacks += store->shard_db(s)->buffer_pool()->stats().dirty_writebacks;
  }
  L["storage.setup_writebacks"] = static_cast<double>(writebacks);
  run->store_bytes = static_cast<double>(pages) * kPageSize;

  // Every database this workload reads pages from.
  std::vector<Database*> dbs;
  for (int s = 0; s < kDistShards; s++) dbs.push_back(store->shard_db(s));
  dbs.push_back(finder->coordinator_db());
  auto served_total = [&] {
    int64_t n = 0;
    for (const auto& s : servers) n += s->requests_served();
    return n;
  };

  Oracle oracle(list);
  PairStream pairs(kDistNodes, Mix(run->args.seed + 1), &run->inputs);
  std::vector<std::pair<node_id_t, node_id_t>> measured_pairs;
  DistQueryStats sum;
  PageTraffic pages_before;
  int64_t served0 = 0;
  run->Drive(kDistWarmup, [&] {
    auto [s, t] = pairs.Next();
    ScopedSpan op(&run->tracer, "bench.op", run->NewOp());
    run->attempted++;
    DistPathResult r;
    Status st;
    double ms = 0;
    {
      ScopedSpan call(&run->tracer, "dist.find");
      Clock::time_point t0 = Clock::now();
      st = finder->Find(s, t, &r);
      ms = MsBetween(t0, Clock::now());
      call.Attr("rounds", static_cast<double>(r.stats.rounds));
      call.Attr("rows_shipped", static_cast<double>(r.stats.rows_shipped));
      call.Attr("shard_statements", static_cast<double>(r.stats.shard_statements));
      call.Attr("coordinator_statements",
                static_cast<double>(r.stats.coordinator_statements));
    }
    if (!st.ok()) return run->Failed(st, "DistPathFinder::Find");
    if (!run->Verify(&oracle, s, t, r.found, r.distance, &r.path)) return;
    run->Done(&run->path_ms, ms);
    if (run->measuring) {
      measured_pairs.emplace_back(s, t);
      sum.rounds += r.stats.rounds;
      sum.rows_shipped += r.stats.rows_shipped;
      sum.shard_statements += r.stats.shard_statements;
      sum.coordinator_statements += r.stats.coordinator_statements;
    }
  }, [&] {
    pages_before = PageTraffic::Of(dbs);
    served0 = served_total();
  });
  const int64_t paths = static_cast<int64_t>(measured_pairs.size());
  PageTraffic::Report(run, pages_before, PageTraffic::Of(dbs), paths);
  auto per = [&](int64_t v) {
    return paths == 0 ? 0.0 : static_cast<double>(v) / paths;
  };
  L["dist.rounds_per_path"] = per(sum.rounds);
  L["dist.shard_statements_per_path"] = per(sum.shard_statements);
  L["dist.coordinator_statements_per_path"] = per(sum.coordinator_statements);
  L["dist.rows_shipped_per_path"] = per(sum.rows_shipped);
  L["net.requests_served"] = static_cast<double>(served_total() - served0);
  const double round_us =
      sum.rounds == 0 ? 0.0 : run->path_ms.Sum() * 1e3 / sum.rounds;
  L["net.round_us"] = round_us;

  ResilienceCounters rc = finder->coordinator()->Resilience();
  L["net.retries"] = static_cast<double>(rc.retries);
  L["net.failovers"] = static_cast<double>(rc.failovers);
  if (rc.retries != 0 || rc.failures != 0 || rc.failovers != 0 ||
      rc.sheds != 0) {
    run->correct = false;
    run->Note("healthy loopback fleet reported retries/failures/failovers/sheds");
  }

  // Traced runs replay the measured queries through in-process shard
  // services: the same rounds without the wire, which prices the wire.
  if (run->tracer.enabled()) {
    ScopedSpan span(&run->tracer, "bench.replay");
    std::unique_ptr<DistPathFinder> local;
    run->Must(DistPathFinder::Create(store.get(), &local, DistOptions{}),
              "local DistPathFinder::Create");
    double local_ms = 0;
    DistQueryStats lsum;
    for (const auto& [s, t] : measured_pairs) {
      DistPathResult r;
      ScopedSpan call(&run->tracer, "dist.local_find");
      Clock::time_point t0 = Clock::now();
      Status st = local->Find(s, t, &r);
      local_ms += MsBetween(t0, Clock::now());
      if (!st.ok()) run->Fatal(st, "local DistPathFinder::Find");
      lsum.rounds += r.stats.rounds;
      lsum.rows_shipped += r.stats.rows_shipped;
    }
    if (lsum.rounds != sum.rounds || lsum.rows_shipped != sum.rows_shipped) {
      run->correct = false;
      run->Note("loopback transport changed rounds or rows shipped");
    }
    const double local_round_us =
        lsum.rounds == 0 ? 0.0 : local_ms * 1e3 / lsum.rounds;
    L["dist.local_round_us"] = local_round_us;
    L["net.wire_tax_us"] = round_us - local_round_us;
  }

  finder.reset();
  for (auto& s : servers) s->Stop();
}

double PeakRssMiB() {
  rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> EndToEnd(const Run& run) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(run.setup_s), "s"});
  m.push_back({"qps", run.busy_ms > 0 ? run.completed / (run.busy_ms / 1e3) : 0,
               "1/s"});
  m.push_back({"path_p50_ms", run.path_ms.Percentile(50), "ms"});
  m.push_back({"path_p90_ms", run.path_ms.Percentile(90), "ms"});
  m.push_back({"peak_rss_mb", PeakRssMiB(), "MiB"});
  m.push_back({"store_bytes_per_edge",
               run.base_edges == 0 ? 0 : run.store_bytes / run.base_edges,
               "B"});
  return m;
}

// Operation types only some workloads run: printed beside the result, not
// in it, since every workload's result carries the same metrics.
std::vector<Metric> WorkloadOnly(const Run& run) {
  std::vector<Metric> m;
  if (run.distance_ms.size() > 0) {
    m.push_back({"distance_p50_ms", run.distance_ms.Percentile(50), "ms"});
    m.push_back({"distance_p99_ms", run.distance_ms.Percentile(99), "ms"});
  }
  if (run.update_ms.size() > 0) {
    m.push_back({"update_p50_ms", run.update_ms.Percentile(50), "ms"});
    m.push_back({"update_p99_ms", run.update_ms.Percentile(99), "ms"});
  }
  return m;
}

std::vector<Metric> PerLayer(const Run& run) {
  std::vector<Metric> m;
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = run.layer.find(name);
    m.push_back({name, it == run.layer.end() ? 0.0 : it->second, unit});
  }
  return m;
}

void WriteTrace(const Run& run, const std::vector<Metric>& e2e,
                const std::vector<Metric>& layer) {
  std::FILE* f = std::fopen(run.args.trace_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "relbench: cannot write %s\n",
                 run.args.trace_out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n\"workload\": \"%s\",\n\"seed\": %llu,\n",
               run.args.workload.c_str(),
               static_cast<unsigned long long>(run.args.seed));
  std::fprintf(f, "\"inputs_fingerprint\": \"%016llx\",\n",
               static_cast<unsigned long long>(run.inputs.value()));
  std::fprintf(f, "\"rounds\": %lld,\n\"attempted\": %lld,\n\"failed\": %lld,\n",
               static_cast<long long>(run.rounds),
               static_cast<long long>(run.attempted),
               static_cast<long long>(run.failed));
  std::fprintf(f, "\"end_to_end_traced\": ");
  PrintJsonMetrics(f, e2e);
  std::fprintf(f, ",\n\"per_layer\": ");
  PrintJsonMetrics(f, layer);
  std::fprintf(f, ",\n\"self_s\": {");
  bool first = true;
  for (const auto& [l, s] : run.tracer.SelfSecondsByLayer()) {
    std::fprintf(f, "%s\"%s\": %.9f", first ? "" : ", ", l.c_str(), s);
    first = false;
  }
  std::fprintf(f, "},\n");
  run.tracer.WriteSpans(f);
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "relbench: every flag takes one value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::atof(v.c_str());
    else if (k == "--rounds") args.rounds = std::atoll(v.c_str());
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--workdir") args.workdir = v;
    else if (k == "--trace-out") args.trace_out = v;
    else {
      std::fprintf(stderr, "relbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  const std::map<std::string, void (*)(Run*)> workloads = {
      {"fem_disk", FemDisk},
      {"seg_churn", SegChurn},
      {"label_mix", LabelMix},
      {"dist_loopback", DistLoopback},
  };
  auto it = workloads.find(args.workload);
  if (it == workloads.end() || args.seconds <= 0) {
    std::fprintf(stderr, "relbench: need --workload one of fem_disk, "
                 "seg_churn, label_mix, dist_loopback and --seconds > 0\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);

  Run run(args);
  it->second(&run);

  std::vector<Metric> e2e = EndToEnd(run);
  std::vector<Metric> layer = PerLayer(run);
  for (const std::string& p : run.problems) {
    std::fprintf(stderr, "relbench %s: %s\n", args.workload.c_str(), p.c_str());
  }
  std::printf("# %s seed=%llu rounds=%lld paths=%zu distances=%zu updates=%zu"
              " setups_s=[",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(run.rounds), run.path_ms.size(),
              run.distance_ms.size(), run.update_ms.size());
  for (size_t i = 0; i < run.setup_s.size(); i++) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", run.setup_s[i]);
  }
  std::printf("]\n# workload-only metrics: ");
  PrintJsonMetrics(stdout, WorkloadOnly(run));
  std::printf("\n");
  if (args.trace && !args.trace_out.empty()) WriteTrace(run, e2e, layer);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": ",
              run.correct ? "true" : "false",
              static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed));
  PrintJsonMetrics(stdout, args.trace ? layer : e2e);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
