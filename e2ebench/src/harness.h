// Shared machinery of the end-to-end benchmark: run arguments, error
// and check accounting, the bench-side span tracer, the query
// generator with its oracle checks, and the traced calls into each
// layer's public functions that the workloads share.
//
// Attribution model. The program is not instrumented; the benchmark
// wraps each call it makes in a span (name, start, end, parent span,
// op id). In the traced mode it also re-runs the lower layers'
// public functions on the same inputs, as child spans of the call
// they sit under. A span's self time is its duration minus the
// durations of its children, so "session overhead around the LCA
// kernel" is Execute minus resolve, kernel, parameter encoding and
// summary on the same pair.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "crimson/crimson.h"
#include "net/client.h"
#include "oracle.h"
#include "query/pattern_match.h"
#include "query/projection.h"
#include "query/sampling.h"

namespace e2e {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's temporary database (created and removed
  /// by the run) and for the span dump of a traced run.
  std::string work_dir = ".bench_build";
};

/// An error that ends the run without a result (a failed call the
/// workload cannot continue past, or bad arguments).
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
T Unwrap(crimson::Result<T> r, const std::string& what) {
  if (!r.ok()) throw BenchError(what + ": " + r.status().ToString());
  return std::move(r).value();
}
void CheckOk(const crimson::Status& s, const std::string& what);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Output checks. A failed check marks the run incorrect; the first few
/// messages go to stderr.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  uint64_t failures() const { return failures_; }
  uint64_t checked() const { return checked_; }

 private:
  uint64_t failures_ = 0;
  uint64_t checked_ = 0;
};

/// What one run reports: the last stdout line is this object as JSON.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Checks checks;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Per-run accounting, printed as one "# ..." line before the JSON.
  std::map<std::string, std::string> info;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// A fresh directory under the work dir, removed with everything in it
/// when the object goes away (also when a check fails or an error is
/// thrown).
class TempDir {
 public:
  TempDir(const std::string& parent, const std::string& tag);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }
  /// Bytes of every file under the directory.
  uint64_t Bytes() const;

 private:
  std::string path_;
};

// -- tracing ------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int parent;      // index into the same tracer, -1 for none
  uint32_t op;     // the workload op this span belongs to
  uint32_t items;  // per-item metrics divide by this
};

/// In-memory span recorder, one per thread; Begin/End are no-ops when
/// off, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  int Begin(const char* name, int parent, uint32_t op, uint32_t items = 1) {
    if (!on_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, op, items});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id >= 0) spans_[id].end = NowNs();
  }
  /// Records a non-time per-layer sample (sizes, counts per answer).
  void Value(const char* name, double v) {
    if (on_) values_[name].push_back(v);
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, std::vector<double>>& values() const {
    return values_;
  }
  /// Per span name: durations and self times in ns, and both divided
  /// by the span's item count.
  struct Times {
    std::vector<double> dur, self, dur_per_item, self_per_item;
  };
  std::map<std::string, Times> Aggregate() const;
  void WriteTsv(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> values_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int parent, uint32_t op,
             uint32_t items = 1)
      : t_(t), id_(t->Begin(name, parent, op, items)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

// -- sessions -----------------------------------------------------------------

/// Every workload's session: on disk, Durability::kCommit, defaults
/// otherwise.
crimson::CrimsonOptions SessionOptions(const std::string& db_path,
                                       uint64_t seed);
std::string DbPath(const TempDir& dir);

/// Open of an existing database, traced as crimson.open_session_ms.
std::unique_ptr<crimson::Crimson> Reopen(const std::string& db_path,
                                         uint64_t seed, Tracer* tr);

/// LoadNewick + Checkpoint. Traced, the load span gets the parse,
/// label build/encode and blob encode replays as children (its self
/// time is the storage work), and the decode side runs beside it.
crimson::TreeRef StoreNewick(crimson::Crimson* s, const std::string& name,
                             const std::string& newick, Tracer* tr,
                             uint32_t op);

/// Cold OpenTree timed in ms.
crimson::TreeRef TimedOpenTree(crimson::Crimson* s, const std::string& name,
                               std::vector<double>* open_ms);

/// Copy of a library tree in the oracle's representation, ids
/// renumbered in pre-order.
OTree FromPhylo(const crimson::PhyloTree& tree);

/// True if the stored tree has the oracle's parents and names.
bool SameShape(const crimson::PhyloTree& tree, const OTree& oracle);

/// A set-up session: its temporary directory, the session over it and
/// the workload tree's handle.
struct Fixture {
  std::unique_ptr<TempDir> dir;
  std::unique_ptr<crimson::Crimson> s;
  crimson::TreeRef ref;
};

struct EndToEnd;

/// Runs the workload's set-up kSetups times on fresh databases and
/// keeps the last: open, `store` (loads and checkpoints), close,
/// reopen, cold OpenTree of `tree_name`, `warm`. Each repetition's
/// wall time goes to e->setup_s and its cold bind to e->open_ms; the
/// database size after the store, over `nodes`, to
/// e->db_bytes_per_node.
Fixture SetUp(const Args& a, const std::string& tree_name, double nodes,
              const std::function<void(crimson::Crimson*)>& store,
              const std::function<void(Fixture*)>& warm, EndToEnd* e,
              Tracer* tr);

/// Closes the fixture's session and reopens it `n` times, each time
/// timing a cold OpenTree of `tree_name` into e->open_ms; the fixture
/// keeps the last session.
void ReopenCycles(const Args& a, Fixture* f, const std::string& tree_name,
                  int n, EndToEnd* e, Tracer* tr);

/// Counters summed over two sessions' snapshots; histograms from `b`.
crimson::obs::MetricsSnapshot Combine(const crimson::obs::MetricsSnapshot& a,
                                      const crimson::obs::MetricsSnapshot& b);

// -- queries ------------------------------------------------------------------

/// The query kinds, in QueryRequest order.
enum class Kind { kLca, kProject, kSampleUniform, kSampleTime, kClade,
                  kPattern };
constexpr int kKindCount = 6;
const char* KindMetric(Kind k);  // "lca", "project", "sample_uniform", ...

struct GenQuery {
  Kind kind;
  crimson::QueryRequest request;
  bool expect_exact = false;  // patterns only
};

/// Seeded query generator over the oracle copy of one tree, plus the
/// oracle checks of each kind's answers.
class QueryGen {
 public:
  QueryGen(OTree tree, uint64_t seed);
  GenQuery Make(Kind kind);
  /// Draws a kind by the query_mix shares: LCA 50%, projection 15%,
  /// uniform and time sampling 10% each, clade 5%, pattern 10%.
  Kind DrawMixKind();
  void Check(const GenQuery& q, const crimson::QueryResult& r, Checks* c);
  const OTree& tree() const { return t_; }
  const OracleIndex& index() const { return idx_; }
  size_t leaf_count() const { return leaves_.size(); }
  /// Ids of k distinct random leaves.
  std::vector<int> DistinctLeaves(size_t k);
  std::vector<std::string> Names(const std::vector<int>& ids) const;
  int LeafId(const std::string& name) const;

 private:
  /// The frontier at one sampling time: a handful of nodes, so one is
  /// kept per time and a leaf's owner is found by walking up to it.
  struct Frontier {
    std::vector<int> nodes;
    std::vector<int> leaves_under;
    std::unordered_map<int, int> index;  // frontier node -> index in nodes
  };
  const Frontier& FrontierAt(double time);
  /// Index into f.nodes of the frontier node above `leaf`, -1 if none.
  int Owner(const Frontier& f, int leaf) const;

  OTree t_;
  std::vector<int> leaves_;
  std::unordered_map<std::string, int> leaf_index_;
  OracleIndex idx_;
  std::vector<double> weight_;
  std::vector<double> times_;
  std::map<double, Frontier> frontiers_;
  crimson::Rng rng_;
};

/// The library modules rebuilt by the benchmark over a bound tree, for
/// the traced replays.
struct LayerKit {
  explicit LayerKit(const crimson::PhyloTree* t);
  const crimson::PhyloTree* tree;
  crimson::NameIndex names;
  crimson::LayeredDeweyScheme scheme;
  std::unique_ptr<crimson::TreeProjector> projector;
  std::unique_ptr<crimson::Sampler> sampler;
  std::unique_ptr<crimson::PatternMatcher> matcher;
};

/// One Execute; traced (kit non-null), the kernel, resolve, parameter
/// encoding and summary replays become its children.
crimson::Result<crimson::QueryResult> RunQuery(
    crimson::Crimson* s, crimson::TreeRef ref, const std::string& tree_name,
    const GenQuery& q, Tracer* tr, LayerKit* kit, uint32_t op);

/// One pipelined batch over the wire, traced. The same batch then runs
/// through ExecuteBatch on `twin`, a session of its own over the same
/// tree, as the round trip's child: a replay on the served session would
/// be answered from its result cache. The request and result codecs run
/// beside it. `local` receives the twin's answers.
std::vector<crimson::Result<crimson::QueryResult>> RunWireBatch(
    crimson::net::CrimsonClient* client, crimson::Crimson* twin,
    crimson::TreeRef twin_ref, const std::string& tree_name,
    const std::vector<crimson::QueryRequest>& batch, Tracer* tr, uint32_t op,
    std::vector<crimson::Result<crimson::QueryResult>>* local);

/// Equality of two answers of the non-sampling kinds.
bool SameAnswer(const crimson::QueryResult& a, const crimson::QueryResult& b);

// -- experiments --------------------------------------------------------------

/// A BenchmarkManager of the benchmark's own over the gold tree and its
/// sequences, for the traced replays of each experiment run.
struct EvalKit {
  EvalKit(const crimson::PhyloTree* tree,
          const std::map<std::string, std::string>* sequences);
  const std::map<std::string, std::string>* sequences;
  crimson::BenchmarkManager manager;
  std::unique_ptr<crimson::ReconstructionAlgorithm> nj, upgma;
};

/// One RunExperiment; traced (kit non-null), each run is replayed
/// through BenchmarkManager::Evaluate on the run's own species, with
/// the distance, reconstruction and scoring calls under it. The
/// session runs the evaluations on its worker pool, so its self time is
/// recorded as the call minus the replayed evaluations divided by the
/// lanes they had.
crimson::Result<crimson::ExperimentReport> RunExperimentOp(
    crimson::Crimson* s, crimson::TreeRef ref,
    const crimson::ExperimentSpec& spec, Tracer* tr, EvalKit* kit,
    uint32_t op);

/// Oracle checks of one report: each run's reference tree has the
/// oracle's induced clusters and its RF equals the oracle's RF.
void CheckExperiment(const QueryGen& gold, const crimson::ExperimentReport& r,
                     Checks* c);

/// Reports match run by run: scores and reconstructed topologies.
bool SameExperiment(const crimson::ExperimentReport& a,
                    const crimson::ExperimentReport& b);

// -- end-to-end figures ---------------------------------------------------------

double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double PeakRssMb();

struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> open_ms;
  std::vector<double> op_us;
  double phase_s = 0;  // denominator of ops_per_s
  uint64_t ops = 0;
  std::vector<double> kind_us[kKindCount];
  double db_bytes_per_node = 0;
  /// Peak RSS sampled by the workload; 0 takes it when reporting.
  double peak_rss_mb = 0;
};
void AddEndToEnd(const EndToEnd& e, Report* r);

/// Untraced per-kind probe for the workloads whose ops are not single
/// queries: a run of queries of every kind, their latencies into
/// e->kind_us, every answer checked.
void ProbeKinds(crimson::Crimson* s, crimson::TreeRef ref,
                const std::string& tree_name, QueryGen* gen, EndToEnd* e,
                Checks* checks);

/// Traced mode: the layers a workload's own ops do not reach, exercised
/// on that workload's tree so every per-layer metric is measured on
/// every workload: single queries of each kind (when `queries`), wire
/// batches, and experiments, whose reports are checked against the
/// oracles and one of which is replayed with RerunExperiment.
void ProbeLayers(const Args& a, crimson::Crimson* s, crimson::TreeRef ref,
                 const std::string& tree_name, QueryGen* gen, bool queries,
                 Tracer* tr, LayerKit* kit, Checks* checks);

/// Per-layer metrics of a traced run: span aggregates, the registry
/// counters of the session that ran the traced ops, and the trace
/// overhead (traced against untraced ops_per_s).
struct LayerCounts {
  double nodes_stored = 1;  // nodes the session stored (WAL bytes per node)
  double ops = 1;           // ops the session ran (fsyncs per op)
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
};
void AddPerLayer(const Tracer& tr, const crimson::obs::MetricsSnapshot& m,
                 const LayerCounts& counts, Report* r);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
