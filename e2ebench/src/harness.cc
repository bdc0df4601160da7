#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <variant>

#include "common/overloaded.h"
#include "crimson/repositories.h"
#include "crimson/service.h"
#include "net/protocol.h"
#include "net/server.h"
#include "query/clade.h"
#include "recon/distance.h"
#include "recon/nj.h"
#include "recon/rf_distance.h"
#include "recon/triplet.h"
#include "recon/upgma.h"
#include "sim/seq_evolve.h"
#include "tree/newick.h"
#include "workloads.h"

namespace e2e {

namespace fs = std::filesystem;
using crimson::QueryRequest;
using crimson::QueryResult;
using crimson::Result;

void CheckOk(const crimson::Status& s, const std::string& what) {
  if (!s.ok()) throw BenchError(what + ": " + s.ToString());
}

void Checks::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (ok) return;
  if (failures_ < 20) std::cerr << "check failed: " << what << "\n";
  ++failures_;
}

// -- temp dir -------------------------------------------------------------------

TempDir::TempDir(const std::string& parent, const std::string& tag) {
  fs::create_directories(parent);
  std::string templ = parent + "/" + tag + "-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    throw BenchError("mkdtemp under " + parent + " failed");
  }
  path_ = templ;
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

uint64_t TempDir::Bytes() const {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path_)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// -- tracer ---------------------------------------------------------------------

std::map<std::string, Tracer::Times> Tracer::Aggregate() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += static_cast<double>(s.end - s.start);
  }
  std::map<std::string, Times> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end - s.start);
    const double self = dur - child_ns[i];
    Times& t = out[s.name];
    t.dur.push_back(dur);
    t.self.push_back(self);
    t.dur_per_item.push_back(dur / s.items);
    t.self_per_item.push_back(self / s.items);
  }
  return out;
}

void Tracer::WriteTsv(const std::string& path) const {
  std::ofstream f(path);
  f << "id\tname\tstart_ns\tend_ns\tparent\top\titems\n";
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << i << '\t' << s.name << '\t' << s.start - t0 << '\t' << s.end - t0
      << '\t' << s.parent << '\t' << s.op << '\t' << s.items << '\n';
  }
}

// -- sessions -------------------------------------------------------------------

crimson::CrimsonOptions SessionOptions(const std::string& db_path,
                                       uint64_t seed) {
  crimson::CrimsonOptions o;
  o.db_path = db_path;
  o.durability = crimson::Durability::kCommit;
  o.seed = seed;
  return o;
}

std::string DbPath(const TempDir& dir) { return dir.path() + "/crimson.db"; }

std::unique_ptr<crimson::Crimson> Reopen(const std::string& db_path,
                                         uint64_t seed, Tracer* tr) {
  ScopedSpan span(tr, "crimson.open_session", -1, 0);
  return Unwrap(crimson::Crimson::Open(SessionOptions(db_path, seed)),
                "reopen " + db_path);
}

crimson::TreeRef StoreNewick(crimson::Crimson* s, const std::string& name,
                             const std::string& newick, Tracer* tr,
                             uint32_t op) {
  const int load = tr->Begin("crimson.load", -1, op);
  crimson::TreeRef ref =
      Unwrap(s->LoadNewick(name, newick), "LoadNewick " + name).ref;
  tr->End(load);
  {
    ScopedSpan cp(tr, "crimson.checkpoint", -1, op);
    CheckOk(s->Checkpoint(), "Checkpoint");
  }
  if (!tr->on()) return ref;
  crimson::PhyloTree tree;
  {
    ScopedSpan span(tr, "tree.parse", load, op);
    tree = Unwrap(crimson::ParseNewick(newick), "ParseNewick");
  }
  crimson::LayeredDeweyScheme scheme;
  {
    ScopedSpan span(tr, "labeling.build", load, op);
    CheckOk(scheme.Build(tree), "label build");
  }
  std::string labels;
  {
    ScopedSpan span(tr, "labeling.encode", load, op);
    scheme.EncodeTo(&labels);
  }
  std::string blob;
  {
    ScopedSpan span(tr, "tree.blob_encode", load, op);
    crimson::EncodePackedTree(tree, &blob);
  }
  tr->Value("labeling.label_bytes", static_cast<double>(labels.size()) /
                                         static_cast<double>(tree.size()));
  // The bind side of the same tree: what a cold OpenTree decodes.
  {
    ScopedSpan span(tr, "tree.blob_decode", -1, op);
    Unwrap(crimson::DecodePackedTree(crimson::Slice(blob)), "blob decode");
  }
  {
    crimson::LayeredDeweyScheme decoded;
    ScopedSpan span(tr, "labeling.decode", -1, op);
    CheckOk(decoded.DecodeFrom(crimson::Slice(labels)), "label decode");
  }
  {
    ScopedSpan span(tr, "tree.name_index_build", -1, op);
    crimson::NameIndex index = crimson::NameIndex::Build(tree);
    (void)index;
  }
  return ref;
}

crimson::TreeRef TimedOpenTree(crimson::Crimson* s, const std::string& name,
                               std::vector<double>* open_ms) {
  const int64_t t0 = NowNs();
  crimson::TreeRef ref = Unwrap(s->OpenTree(name), "OpenTree " + name);
  open_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
  return ref;
}

OTree FromPhylo(const crimson::PhyloTree& tree) {
  OTree out;
  if (tree.empty()) return out;
  // (library node, oracle parent) in pre-order.
  std::vector<std::pair<crimson::NodeId, int>> stack = {{tree.root(), -1}};
  while (!stack.empty()) {
    auto [n, par] = stack.back();
    stack.pop_back();
    const int id = out.AddNode(par, std::string(tree.name(n)),
                               par < 0 ? 0.0 : tree.edge_length(n));
    std::vector<crimson::NodeId> kids = tree.Children(n);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, id});
    }
  }
  return out;
}

bool SameShape(const crimson::PhyloTree& tree, const OTree& oracle) {
  if (static_cast<int>(tree.size()) != oracle.size()) return false;
  for (int v = 0; v < oracle.size(); ++v) {
    const crimson::NodeId p = tree.parent(v);
    const int want = oracle.parent[v];
    if ((want < 0) != (p == crimson::kNoNode)) return false;
    if (want >= 0 && static_cast<int>(p) != want) return false;
    if (tree.name(v) != oracle.name[v]) return false;
  }
  return true;
}

Fixture SetUp(const Args& a, const std::string& tree_name, double nodes,
              const std::function<void(crimson::Crimson*)>& store,
              const std::function<void(Fixture*)>& warm, EndToEnd* e,
              Tracer* tr) {
  Fixture f;
  for (int i = 0; i < kSetups; ++i) {
    f.s.reset();
    f.dir.reset();
    f.dir = std::make_unique<TempDir>(a.work_dir + "/tmp", a.workload);
    const int64_t t0 = NowNs();
    {
      auto first = Unwrap(
          crimson::Crimson::Open(SessionOptions(DbPath(*f.dir), a.seed)),
          "open");
      store(first.get());
    }
    const int64_t t1 = NowNs();
    e->db_bytes_per_node = static_cast<double>(f.dir->Bytes()) / nodes;
    const int64_t t2 = NowNs();
    f.s = Reopen(DbPath(*f.dir), a.seed, tr);
    f.ref = TimedOpenTree(f.s.get(), tree_name, &e->open_ms);
    if (warm) warm(&f);
    e->setup_s.push_back(static_cast<double>(NowNs() - t2 + t1 - t0) / 1e9);
  }
  return f;
}

void ReopenCycles(const Args& a, Fixture* f, const std::string& tree_name,
                  int n, EndToEnd* e, Tracer* tr) {
  for (int i = 0; i < n; ++i) {
    f->s.reset();
    f->s = Reopen(DbPath(*f->dir), a.seed, tr);
    f->ref = TimedOpenTree(f->s.get(), tree_name, &e->open_ms);
  }
}

crimson::obs::MetricsSnapshot Combine(const crimson::obs::MetricsSnapshot& a,
                                      const crimson::obs::MetricsSnapshot& b) {
  crimson::obs::MetricsSnapshot out = b;
  for (const auto& [name, v] : a.counters) out.counters[name] += v;
  return out;
}

// -- queries --------------------------------------------------------------------

const char* KindMetric(Kind k) {
  switch (k) {
    case Kind::kLca: return "lca";
    case Kind::kProject: return "project";
    case Kind::kSampleUniform: return "sample_uniform";
    case Kind::kSampleTime: return "sample_time";
    case Kind::kClade: return "clade";
    case Kind::kPattern: return "pattern";
  }
  return "?";
}

namespace {

const char* ExecuteSpan(Kind k) {
  static const char* kNames[kKindCount] = {
      "crimson.execute.lca",         "crimson.execute.project",
      "crimson.execute.sample_uniform", "crimson.execute.sample_time",
      "crimson.execute.clade",       "crimson.execute.pattern_match"};
  return kNames[static_cast<int>(k)];
}

std::string RandomTopology(std::vector<std::string> names, crimson::Rng* rng) {
  // Joins two random subtrees until one is left: a random rooted
  // binary topology over `names`.
  while (names.size() > 1) {
    const size_t i = rng->Uniform(names.size());
    std::string a = std::move(names[i]);
    names.erase(names.begin() + static_cast<long>(i));
    const size_t j = rng->Uniform(names.size());
    names[j] = "(" + a + "," + names[j] + ")";
  }
  return names[0] + ";";
}

std::vector<std::string> LeafNames(const crimson::PhyloTree& t) {
  std::vector<std::string> out;
  for (crimson::NodeId n : t.Leaves()) out.emplace_back(t.name(n));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

QueryGen::QueryGen(OTree tree, uint64_t seed)
    : t_(std::move(tree)), idx_(t_), rng_(seed) {
  for (int v = 0; v < t_.size(); ++v) {
    if (t_.is_leaf(v)) leaves_.push_back(v);
  }
  leaf_index_ = LeafIndex(t_);
  weight_ = RootWeights(t_);
  // Sampling times fall halfway along the edge above a node at depth
  // 2 to 6, so each frontier has a handful of nodes.
  std::vector<int> shallow;
  for (int v = 1; v < t_.size(); ++v) {
    if (idx_.depth[v] >= 2 && idx_.depth[v] <= 6 && t_.len[v] > 0) {
      shallow.push_back(v);
    }
  }
  if (shallow.empty()) throw BenchError("tree too shallow for time samples");
  // Many distinct times, so the frontier sizes a run sees (and the
  // cost of time sampling) average out across seeds.
  for (int i = 0; i < 256; ++i) {
    const int v = shallow[rng_.Uniform(shallow.size())];
    times_.push_back(weight_[t_.parent[v]] + 0.5 * t_.len[v]);
  }
}

std::vector<int> QueryGen::DistinctLeaves(size_t k) {
  std::vector<int> out;
  for (uint64_t i : rng_.SampleWithoutReplacement(leaves_.size(), k)) {
    out.push_back(leaves_[i]);
  }
  return out;
}

std::vector<std::string> QueryGen::Names(const std::vector<int>& ids) const {
  std::vector<std::string> out;
  for (int v : ids) out.push_back(t_.name[v]);
  return out;
}

int QueryGen::LeafId(const std::string& name) const {
  auto it = leaf_index_.find(name);
  return it == leaf_index_.end() ? -1 : it->second;
}

Kind QueryGen::DrawMixKind() {
  const uint64_t r = rng_.Uniform(100);
  if (r < 50) return Kind::kLca;
  if (r < 65) return Kind::kProject;
  if (r < 75) return Kind::kSampleUniform;
  if (r < 85) return Kind::kSampleTime;
  if (r < 90) return Kind::kClade;
  return Kind::kPattern;
}

GenQuery QueryGen::Make(Kind kind) {
  GenQuery q{kind, crimson::LcaQuery{}, false};
  switch (kind) {
    case Kind::kLca: {
      std::vector<std::string> n = Names(DistinctLeaves(2));
      q.request = crimson::LcaQuery{n[0], n[1]};
      break;
    }
    case Kind::kProject:
      q.request = crimson::ProjectQuery{Names(DistinctLeaves(32))};
      break;
    case Kind::kSampleUniform:
      q.request = crimson::SampleUniformQuery{16};
      break;
    case Kind::kSampleTime:
      q.request =
          crimson::SampleTimeQuery{16, times_[rng_.Uniform(times_.size())]};
      break;
    case Kind::kClade:
      q.request = crimson::CladeQuery{Names(DistinctLeaves(8))};
      break;
    case Kind::kPattern: {
      // Half are cut from the tree (must match exactly), half are
      // random topologies (match exactly only if the clusters agree).
      const std::vector<int> ids = DistinctLeaves(4 + rng_.Uniform(5));
      std::string text;
      if (rng_.Uniform(2) == 0) {
        text = WriteTopology(InducedSubtree(t_, idx_, ids));
        q.expect_exact = true;
      } else {
        text = RandomTopology(Names(ids), &rng_);
        q.expect_exact = TreeClusters(ParseNewickText(text)) ==
                         InducedClusters(t_, idx_, ids);
      }
      q.request = crimson::PatternQuery{text, false};
      break;
    }
  }
  return q;
}

const QueryGen::Frontier& QueryGen::FrontierAt(double time) {
  auto it = frontiers_.find(time);
  if (it != frontiers_.end()) return it->second;
  Frontier f;
  f.nodes = TimeFrontier(t_, weight_, time);
  for (size_t i = 0; i < f.nodes.size(); ++i) {
    f.index.emplace(f.nodes[i], static_cast<int>(i));
    f.leaves_under.push_back(idx_.counts.leaves[f.nodes[i]]);
  }
  return frontiers_.emplace(time, std::move(f)).first->second;
}

int QueryGen::Owner(const Frontier& f, int leaf) const {
  for (int v = leaf; v >= 0; v = t_.parent[v]) {
    auto it = f.index.find(v);
    if (it != f.index.end()) return it->second;
  }
  return -1;
}

void QueryGen::Check(const GenQuery& q, const QueryResult& r, Checks* c) {
  auto ids_of = [&](const std::vector<std::string>& names) {
    std::vector<int> ids;
    for (const std::string& n : names) ids.push_back(LeafId(n));
    return ids;
  };
  std::visit(
      crimson::Overloaded{
          [&](const crimson::LcaQuery& req) {
            const auto* a = std::get_if<crimson::LcaAnswer>(&r);
            const int want = NaiveLca(t_, idx_.depth, LeafId(req.a),
                                      LeafId(req.b));
            c->Expect(a != nullptr && static_cast<int>(a->node) == want &&
                          a->name == t_.name[want],
                      "lca " + req.a + "," + req.b);
          },
          [&](const crimson::ProjectQuery& req) {
            const auto* a = std::get_if<crimson::ProjectAnswer>(&r);
            c->Expect(a != nullptr &&
                          TreeClusters(FromPhylo(a->projection)) ==
                              InducedClusters(t_, idx_, ids_of(req.species)),
                      "projection clusters");
          },
          [&](const crimson::SampleUniformQuery& req) {
            const auto* a = std::get_if<crimson::SampleAnswer>(&r);
            bool ok = a != nullptr && a->species.size() == req.k;
            if (ok) {
              std::vector<std::string> s = a->species;
              std::sort(s.begin(), s.end());
              ok = std::adjacent_find(s.begin(), s.end()) == s.end();
              for (const std::string& n : s) ok = ok && LeafId(n) >= 0;
            }
            c->Expect(ok, "uniform sample: distinct leaves");
          },
          [&](const crimson::SampleTimeQuery& req) {
            const auto* a = std::get_if<crimson::SampleAnswer>(&r);
            bool ok = a != nullptr && a->species.size() == req.k;
            const Frontier& f = FrontierAt(req.time);
            std::vector<int> per(f.nodes.size(), 0);
            if (ok) {
              std::vector<std::string> s = a->species;
              std::sort(s.begin(), s.end());
              ok = std::adjacent_find(s.begin(), s.end()) == s.end();
              for (const std::string& n : s) {
                const int id = LeafId(n);
                const int owner = id >= 0 ? Owner(f, id) : -1;
                ok = ok && owner >= 0;
                if (ok) ++per[owner];
              }
            }
            // Spread evenly: every frontier node gets its floor share,
            // or all of its leaves when it has fewer.
            const int floor_share =
                f.nodes.empty() ? 0 : static_cast<int>(req.k / f.nodes.size());
            for (size_t i = 0; ok && i < f.nodes.size(); ++i) {
              ok = per[i] >= std::min(floor_share, f.leaves_under[i]);
            }
            c->Expect(ok, "time sample under frontier and spread evenly");
          },
          [&](const crimson::CladeQuery& req) {
            const auto* a = std::get_if<crimson::CladeAnswer>(&r);
            std::vector<int> ids = ids_of(req.species);
            int root = ids[0];
            for (int v : ids) root = NaiveLca(t_, idx_.depth, root, v);
            c->Expect(a != nullptr && static_cast<int>(a->root) == root &&
                          static_cast<int>(a->node_count) ==
                              idx_.counts.nodes[root] &&
                          static_cast<int>(a->leaf_count) ==
                              idx_.counts.leaves[root],
                      "clade root and size");
          },
          [&](const crimson::PatternQuery& req) {
            const auto* a = std::get_if<crimson::PatternAnswer>(&r);
            OTree pattern = ParseNewickText(req.pattern_newick);
            std::vector<int> ids;
            for (int v = 0; v < pattern.size(); ++v) {
              if (pattern.is_leaf(v)) ids.push_back(LeafId(pattern.name[v]));
            }
            c->Expect(a != nullptr && a->exact == q.expect_exact &&
                          TreeClusters(FromPhylo(a->projection)) ==
                              InducedClusters(t_, idx_, ids),
                      "pattern " + req.pattern_newick);
          },
      },
      q.request);
}

LayerKit::LayerKit(const crimson::PhyloTree* t)
    : tree(t), names(crimson::NameIndex::Build(*t)) {
  CheckOk(scheme.Build(*t), "bench-side label build");
  projector = std::make_unique<crimson::TreeProjector>(t, &scheme);
  sampler = std::make_unique<crimson::Sampler>(t);
  matcher = std::make_unique<crimson::PatternMatcher>(projector.get(), &names);
}

namespace {

std::vector<crimson::NodeId> Resolve(Tracer* tr, LayerKit* kit, int parent,
                                     uint32_t op,
                                     const std::vector<std::string>& names) {
  ScopedSpan span(tr, "tree.resolve", parent, op,
                  static_cast<uint32_t>(names.size()));
  std::vector<crimson::NodeId> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    out.push_back(kit->names.FindLeaf(*kit->tree, n));
  }
  return out;
}

}  // namespace

Result<QueryResult> RunQuery(crimson::Crimson* s, crimson::TreeRef ref,
                             const std::string& tree_name, const GenQuery& q,
                             Tracer* tr, LayerKit* kit, uint32_t op) {
  if (kit == nullptr || !tr->on()) return s->Execute(ref, q.request);
  const int id = tr->Begin(ExecuteSpan(q.kind), -1, op);
  Result<QueryResult> r = s->Execute(ref, q.request);
  tr->End(id);
  if (!r.ok()) return r;
  crimson::Rng rng(op);
  std::visit(
      crimson::Overloaded{
          [&](const crimson::LcaQuery& req) {
            auto n = Resolve(tr, kit, id, op, {req.a, req.b});
            ScopedSpan span(tr, "labeling.lca", id, op);
            Unwrap(kit->scheme.Lca(n[0], n[1]), "Lca");
          },
          [&](const crimson::ProjectQuery& req) {
            auto n = Resolve(tr, kit, id, op, req.species);
            ScopedSpan span(tr, "query.project", id, op);
            Unwrap(kit->projector->Project(std::move(n)), "Project");
          },
          [&](const crimson::SampleUniformQuery& req) {
            ScopedSpan span(tr, "query.sample", id, op);
            Unwrap(kit->sampler->SampleUniform(req.k, &rng), "SampleUniform");
          },
          [&](const crimson::SampleTimeQuery& req) {
            ScopedSpan span(tr, "query.sample", id, op);
            Unwrap(kit->sampler->SampleWithRespectToTime(req.k, req.time, &rng),
                   "SampleWithRespectToTime");
          },
          [&](const crimson::CladeQuery& req) {
            auto n = Resolve(tr, kit, id, op, req.species);
            size_t nodes = 0;
            {
              ScopedSpan span(tr, "query.clade", id, op);
              nodes = Unwrap(crimson::MinimalSpanningClade(*kit->tree,
                                                           kit->scheme, n),
                             "MinimalSpanningClade")
                          .nodes.size();
            }
            tr->Value("query.clade_nodes", static_cast<double>(nodes));
          },
          [&](const crimson::PatternQuery& req) {
            crimson::PhyloTree pattern;
            {
              ScopedSpan span(tr, "tree.pattern_parse", id, op);
              pattern = Unwrap(crimson::ParseNewick(req.pattern_newick),
                               "pattern parse");
            }
            crimson::PatternMatcher::MatchResult m;
            {
              ScopedSpan span(tr, "query.pattern", id, op);
              m = Unwrap(kit->matcher->Match(pattern, 1e-9, req.match_weights),
                         "Match");
            }
            if (!m.exact && pattern.LeafCount() >= 3) {
              ScopedSpan span(tr, "recon.pattern_rf", id, op);
              Unwrap(crimson::RobinsonFoulds(pattern, m.projection), "RF");
            }
          },
      },
      q.request);
  {
    ScopedSpan span(tr, "crimson.encode_params", id, op);
    std::string p = crimson::EncodeQueryParams(tree_name, q.request);
    (void)p;
  }
  {
    ScopedSpan span(tr, "crimson.summarize", id, op);
    std::string sum = crimson::SummarizeResult(*r);
    (void)sum;
  }
  return r;
}

std::vector<Result<QueryResult>> RunWireBatch(
    crimson::net::CrimsonClient* client, crimson::Crimson* twin,
    crimson::TreeRef twin_ref, const std::string& tree_name,
    const std::vector<QueryRequest>& batch, Tracer* tr, uint32_t op,
    std::vector<Result<QueryResult>>* local) {
  crimson::Span<const QueryRequest> span(batch);
  const uint32_t n = static_cast<uint32_t>(batch.size());
  const int id = tr->Begin("net.roundtrip", -1, op, n);
  std::vector<Result<QueryResult>> out = client->ExecuteBatch(tree_name, span);
  tr->End(id);
  {
    ScopedSpan in(tr, "crimson.execute_batch", id, op, n);
    *local = twin->ExecuteBatch(twin_ref, span);
  }
  {
    std::string buf;
    ScopedSpan enc(tr, "net.encode", -1, op, n);
    for (const QueryRequest& q : batch) crimson::net::EncodeQueryRequest(&buf, q);
  }
  std::string results;
  uint32_t encoded = 0;
  for (const auto& r : out) {
    if (!r.ok()) continue;
    crimson::net::EncodeQueryResult(&results, *r);
    ++encoded;
  }
  if (encoded > 0) {
    crimson::Slice in(results);
    ScopedSpan dec(tr, "net.decode", -1, op, encoded);
    for (uint32_t i = 0; i < encoded; ++i) {
      Unwrap(crimson::net::DecodeQueryResultWire(&in), "result decode");
    }
  }
  return out;
}

bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      crimson::Overloaded{
          [&](const crimson::LcaAnswer& x) {
            const auto& y = std::get<crimson::LcaAnswer>(b);
            return x.node == y.node && x.name == y.name;
          },
          [&](const crimson::ProjectAnswer& x) {
            const auto& y = std::get<crimson::ProjectAnswer>(b);
            return crimson::WriteNewick(x.projection) ==
                   crimson::WriteNewick(y.projection);
          },
          [&](const crimson::SampleAnswer& x) {
            return x.species == std::get<crimson::SampleAnswer>(b).species;
          },
          [&](const crimson::CladeAnswer& x) {
            const auto& y = std::get<crimson::CladeAnswer>(b);
            return x.root == y.root && x.node_count == y.node_count &&
                   x.leaf_count == y.leaf_count;
          },
          [&](const crimson::PatternAnswer& x) {
            const auto& y = std::get<crimson::PatternAnswer>(b);
            return x.exact == y.exact && x.rf_normalized == y.rf_normalized &&
                   crimson::WriteNewick(x.projection) ==
                       crimson::WriteNewick(y.projection);
          },
      },
      a);
}

// -- experiments ----------------------------------------------------------------

EvalKit::EvalKit(const crimson::PhyloTree* tree,
                 const std::map<std::string, std::string>* seqs)
    : sequences(seqs),
      manager(tree, seqs, 8u),
      nj(crimson::MakeNjAlgorithm()),
      upgma(crimson::MakeUpgmaAlgorithm()) {
  CheckOk(manager.Init(), "bench-side BenchmarkManager::Init");
}

Result<crimson::ExperimentReport> RunExperimentOp(
    crimson::Crimson* s, crimson::TreeRef ref,
    const crimson::ExperimentSpec& spec, Tracer* tr, EvalKit* kit,
    uint32_t op) {
  const size_t workers = crimson::CrimsonOptions().batch_workers;
  const int id = tr->Begin("crimson.experiment", -1, op);
  Result<crimson::ExperimentReport> rep = s->RunExperiment(ref, spec);
  tr->End(id);
  if (!rep.ok() || kit == nullptr || !tr->on()) return rep;
  const size_t per_alg = spec.selections.size() * spec.replicates;
  double eval_ns = 0;
  for (size_t i = 0; i < rep->runs.size(); ++i) {
    const crimson::BenchmarkRun& run = rep->runs[i];
    const bool is_nj = spec.algorithms[i / per_alg] == "nj";
    // Same species as the session's run, so the replay does the same
    // projection, sequence fetch, reconstruction and scoring work.
    crimson::SelectionSpec same;
    same.kind = crimson::SelectionSpec::Kind::kUserList;
    same.species = LeafNames(run.reference);
    crimson::Rng rng(op * 1000 + i);
    const int eval = tr->Begin("crimson.experiment_eval", -1, op);
    Unwrap(kit->manager.Evaluate(is_nj ? *kit->nj : *kit->upgma, same, &rng,
                                 spec.compute_triplets),
           "Evaluate");
    tr->End(eval);
    eval_ns += static_cast<double>(tr->spans()[eval].end - tr->spans()[eval].start);
    std::map<std::string, std::string> seqs;
    for (const std::string& n : same.species) seqs[n] = kit->sequences->at(n);
    crimson::DistanceMatrix m;
    {
      ScopedSpan span(tr, "recon.distance", eval, op);
      m = Unwrap(crimson::ComputeDistanceMatrix(
                     seqs, crimson::DistanceCorrection::kJC69),
                 "distance");
    }
    {
      ScopedSpan span(tr, is_nj ? "recon.nj" : "recon.upgma", eval, op);
      Unwrap(is_nj ? crimson::NeighborJoining(m) : crimson::Upgma(m),
             "reconstruct");
    }
    {
      ScopedSpan span(tr, "recon.rf", eval, op);
      Unwrap(crimson::RobinsonFoulds(run.reference, run.reconstructed), "RF");
    }
    if (spec.compute_triplets) {
      ScopedSpan span(tr, "recon.triplet", eval, op);
      Unwrap(crimson::TripletDistance(run.reference, run.reconstructed),
             "triplets");
    }
  }
  // The session evaluates the runs on its worker pool, so its self time
  // is the call minus the evaluations spread over the workers.
  const Span& call = tr->spans()[id];
  const double lanes = static_cast<double>(
      std::min<size_t>(workers, std::max<size_t>(rep->runs.size(), 1)));
  tr->Value("crimson.experiment_self_us",
            (static_cast<double>(call.end - call.start) - eval_ns / lanes) / 1e3);
  return rep;
}

void CheckExperiment(const QueryGen& gold, const crimson::ExperimentReport& r,
                     Checks* c) {
  c->Expect(r.runs.size() == r.spec.job_count(), "experiment run count");
  for (const crimson::BenchmarkRun& run : r.runs) {
    OTree ref = FromPhylo(run.reference);
    std::vector<int> ids;
    bool known = true;
    for (int v = 0; v < ref.size(); ++v) {
      if (!ref.is_leaf(v)) continue;
      ids.push_back(gold.LeafId(ref.name[v]));
      known = known && ids.back() >= 0;
    }
    c->Expect(known && TreeClusters(ref) ==
                           InducedClusters(gold.tree(), gold.index(), ids),
              "experiment reference clusters");
    bool rf_ok = false;
    try {
      rf_ok = RfDistance(ref, FromPhylo(run.reconstructed)) == run.rf.distance;
    } catch (const OracleError&) {
      rf_ok = false;
    }
    c->Expect(rf_ok, "experiment RF against oracle");
  }
}

bool SameExperiment(const crimson::ExperimentReport& a,
                    const crimson::ExperimentReport& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (size_t i = 0; i < a.runs.size(); ++i) {
    const crimson::BenchmarkRun& x = a.runs[i];
    const crimson::BenchmarkRun& y = b.runs[i];
    if (x.rf.distance != y.rf.distance ||
        x.triplets.differing != y.triplets.differing ||
        crimson::WriteNewick(x.reconstructed) !=
            crimson::WriteNewick(y.reconstructed) ||
        crimson::WriteNewick(x.reference) !=
            crimson::WriteNewick(y.reference)) {
      return false;
    }
  }
  return true;
}

// -- figures --------------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddEndToEnd(const EndToEnd& e, Report* r) {
  if (e.ops == 0 || e.phase_s <= 0) throw BenchError("no op completed");
  // The 1% tail is printed for reference but is not a metric: its
  // run-to-run spread on the test machine was 0.2-0.4 of its median.
  r->info["op_p99_us"] = std::to_string(Percentile(e.op_us, 0.99));
  r->Add("setup_s", Median(e.setup_s), "s");
  r->Add("ops_per_s", static_cast<double>(e.ops) / e.phase_s, "op/s");
  r->Add("op_p50_us", Median(e.op_us), "us");
  for (int k = 0; k < kKindCount; ++k) {
    r->Add(std::string(KindMetric(static_cast<Kind>(k))) + "_p50_us",
           Median(e.kind_us[k]), "us");
  }
  r->Add("open_ms", Median(e.open_ms), "ms");
  r->Add("db_bytes_per_node", e.db_bytes_per_node, "B/node");
  r->Add("peak_rss_mb", e.peak_rss_mb > 0 ? e.peak_rss_mb : PeakRssMb(), "MiB");
}

void ProbeKinds(crimson::Crimson* s, crimson::TreeRef ref,
                const std::string& tree_name, QueryGen* gen, EndToEnd* e,
                Checks* checks) {
  // Round-robin over the kinds, so a transient slowdown of the machine
  // hits every kind alike: a short untimed warm-up (the session was
  // just reopened), then rounds until kBudget has passed and every
  // kind has kMin samples.
  constexpr int kWarm = 20, kMin = 200;
  constexpr int64_t kBudget = 1'500'000'000;
  Tracer off(false);
  const int64_t start = NowNs();
  for (int round = 0;; ++round) {
    if (round >= kWarm + kMin && NowNs() - start > kBudget) break;
    for (int k = 0; k < kKindCount; ++k) {
      GenQuery q = gen->Make(static_cast<Kind>(k));
      const int64_t t0 = NowNs();
      Result<QueryResult> r = RunQuery(s, ref, tree_name, q, &off, nullptr, 0);
      const int64_t t1 = NowNs();
      if (!r.ok()) throw BenchError("probe query: " + r.status().ToString());
      if (round >= kWarm) {
        e->kind_us[k].push_back(static_cast<double>(t1 - t0) / 1e3);
      }
      gen->Check(q, *r, checks);
    }
  }
}

void ProbeLayers(const Args& a, crimson::Crimson* s, crimson::TreeRef ref,
                 const std::string& tree_name, QueryGen* gen, bool queries,
                 Tracer* tr, LayerKit* kit, Checks* checks) {
  uint32_t op = 1u << 30;  // probe ops are numbered apart from workload ops
  if (queries) {
    for (int k = 0; k < kKindCount; ++k) {
      for (int i = 0; i < 32; ++i) {
        GenQuery q = gen->Make(static_cast<Kind>(k));
        gen->Check(q, Unwrap(RunQuery(s, ref, tree_name, q, tr, kit, op++),
                             "probe query"),
                   checks);
      }
    }
  }
  {
    // The twin: same options, same tree, its own result cache, so its
    // replay of each batch does the work the server's session did.
    TempDir twin_dir(a.work_dir + "/tmp", "twin");
    auto twin = Unwrap(
        crimson::Crimson::Open(SessionOptions(DbPath(twin_dir), a.seed)),
        "twin open");
    const crimson::TreeRef twin_ref =
        Unwrap(twin->LoadTree(tree_name, *kit->tree), "twin load").ref;
    crimson::SessionService service(s);
    auto server = Unwrap(crimson::net::CrimsonServer::Start(&service),
                         "server start");
    crimson::net::ClientOptions co;
    co.port = server->port();
    auto client = Unwrap(crimson::net::CrimsonClient::Connect(co), "connect");
    for (int b = 0; b < 48; ++b) {
      std::vector<GenQuery> qs;
      std::vector<QueryRequest> batch;
      for (int i = 0; i < 16; ++i) {
        qs.push_back(gen->Make(gen->DrawMixKind()));
        batch.push_back(qs.back().request);
      }
      std::vector<Result<QueryResult>> local;
      auto out = RunWireBatch(client.get(), twin.get(), twin_ref, tree_name,
                              batch, tr, op++, &local);
      for (size_t i = 0; i < out.size(); ++i) {
        if (!out[i].ok() || !local[i].ok()) {
          throw BenchError("probe wire query failed");
        }
        gen->Check(qs[i], *out[i], checks);
        if (qs[i].kind != Kind::kSampleUniform &&
            qs[i].kind != Kind::kSampleTime) {
          checks->Expect(SameAnswer(*out[i], *local[i]),
                         "wire answer equals in-process answer");
        }
      }
    }
    client.reset();
    CheckOk(server->Shutdown(), "server shutdown");
  }
  {
    // Sequences for 64 leaves, evolved along their induced subtree, give
    // the evaluation path something to reconstruct on this tree.
    std::vector<std::string> names = gen->Names(gen->DistinctLeaves(64));
    auto proj = Unwrap(s->Execute(ref, crimson::ProjectQuery{names}), "project");
    crimson::SeqEvolveOptions so;
    so.model = crimson::SubstModel::kJC69;
    so.seq_length = 500;
    auto evolver = Unwrap(crimson::SequenceEvolver::Create(so), "evolver");
    crimson::Rng rng(a.seed ^ 0x5EC5);
    const crimson::PhyloTree& ptree =
        std::get<crimson::ProjectAnswer>(proj).projection;
    auto seqs = Unwrap(evolver.EvolveLeaves(ptree, &rng), "evolve");
    CheckOk(s->AppendSpeciesData(tree_name, seqs).status(), "species");
    crimson::ExperimentSpec spec;
    spec.algorithms = {"nj", "upgma"};
    for (int half = 0; half < 2; ++half) {
      crimson::SelectionSpec sel;
      sel.kind = crimson::SelectionSpec::Kind::kUserList;
      sel.species.assign(names.begin() + half * 32,
                         names.begin() + (half + 1) * 32);
      spec.selections.push_back(sel);
    }
    spec.replicates = 2;
    spec.compute_triplets = true;
    EvalKit ek(kit->tree, &seqs);
    crimson::ExperimentReport first;
    for (int i = 0; i < 3; ++i) {
      crimson::ExperimentReport rep = Unwrap(
          RunExperimentOp(s, ref, spec, tr, &ek, op++), "probe experiment");
      CheckExperiment(*gen, rep, checks);
      if (i == 0) first = std::move(rep);
    }
    checks->Expect(
        SameExperiment(first, Unwrap(s->RerunExperiment(first.experiment_id),
                                     "RerunExperiment")),
        "RerunExperiment reproduces the report");
  }
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void AddPerLayer(const Tracer& tr, const crimson::obs::MetricsSnapshot& m,
                 const LayerCounts& counts, Report* r) {
  enum Mode { kDur, kSelf, kDurPerItem, kSelfPerItem };
  struct Row {
    const char* metric;
    const char* span;
    Mode mode;
    const char* unit;
  };
  static const Row kRows[] = {
      {"tree.parse_us", "tree.parse", kDur, "us"},
      {"tree.blob_encode_us", "tree.blob_encode", kDur, "us"},
      {"tree.blob_decode_us", "tree.blob_decode", kDur, "us"},
      {"tree.name_index_build_us", "tree.name_index_build", kDur, "us"},
      {"tree.resolve_ns", "tree.resolve", kDurPerItem, "ns"},
      {"labeling.build_us", "labeling.build", kDur, "us"},
      {"labeling.encode_us", "labeling.encode", kDur, "us"},
      {"labeling.decode_us", "labeling.decode", kDur, "us"},
      {"labeling.lca_ns", "labeling.lca", kDur, "ns"},
      {"query.clade_us", "query.clade", kDur, "us"},
      {"query.project_us", "query.project", kDur, "us"},
      {"query.sample_us", "query.sample", kDur, "us"},
      {"query.pattern_us", "query.pattern", kDur, "us"},
      {"crimson.execute_us.lca", "crimson.execute.lca", kDur, "us"},
      {"crimson.execute_us.project", "crimson.execute.project", kDur, "us"},
      {"crimson.execute_us.sample_uniform", "crimson.execute.sample_uniform",
       kDur, "us"},
      {"crimson.execute_us.sample_time", "crimson.execute.sample_time", kDur,
       "us"},
      {"crimson.execute_us.clade", "crimson.execute.clade", kDur, "us"},
      {"crimson.execute_us.pattern_match", "crimson.execute.pattern_match",
       kDur, "us"},
      {"crimson.overhead_us.lca", "crimson.execute.lca", kSelf, "us"},
      {"crimson.overhead_us.project", "crimson.execute.project", kSelf, "us"},
      {"crimson.overhead_us.sample_uniform", "crimson.execute.sample_uniform",
       kSelf, "us"},
      {"crimson.overhead_us.sample_time", "crimson.execute.sample_time", kSelf,
       "us"},
      {"crimson.overhead_us.clade", "crimson.execute.clade", kSelf, "us"},
      {"crimson.overhead_us.pattern_match", "crimson.execute.pattern_match",
       kSelf, "us"},
      {"crimson.encode_params_ns", "crimson.encode_params", kDur, "ns"},
      {"crimson.summarize_ns", "crimson.summarize", kDur, "ns"},
      {"crimson.load_us", "crimson.load", kDur, "us"},
      {"crimson.checkpoint_us", "crimson.checkpoint", kDur, "us"},
      {"crimson.open_session_ms", "crimson.open_session", kDur, "ms"},
      {"crimson.experiment_eval_us", "crimson.experiment_eval", kDur, "us"},
      {"storage.store_self_us", "crimson.load", kSelf, "us"},
      {"net.roundtrip_us", "net.roundtrip", kDur, "us"},
      {"net.overhead_us_per_query", "net.roundtrip", kSelfPerItem, "us"},
      {"net.encode_ns", "net.encode", kDurPerItem, "ns"},
      {"net.decode_ns", "net.decode", kDurPerItem, "ns"},
      {"recon.distance_us", "recon.distance", kDur, "us"},
      {"recon.nj_us", "recon.nj", kDur, "us"},
      {"recon.upgma_us", "recon.upgma", kDur, "us"},
      {"recon.rf_us", "recon.rf", kDur, "us"},
      {"recon.triplet_us", "recon.triplet", kDur, "us"},
  };
  const std::map<std::string, Tracer::Times> agg = tr.Aggregate();
  for (const Row& row : kRows) {
    auto it = agg.find(row.span);
    if (it == agg.end()) throw BenchError(std::string("no spans for ") + row.span);
    const Tracer::Times& t = it->second;
    const std::vector<double>& v = row.mode == kDur       ? t.dur
                                   : row.mode == kSelf    ? t.self
                                   : row.mode == kDurPerItem ? t.dur_per_item
                                                          : t.self_per_item;
    const double scale = row.unit[0] == 'n' ? 1.0 : row.unit[0] == 'u' ? 1e3 : 1e6;
    r->Add(row.metric, Median(v) / scale, row.unit);
  }
  auto value = [&](const char* name) {
    auto it = tr.values().find(name);
    if (it == tr.values().end()) throw BenchError(std::string("no ") + name);
    return Median(it->second);
  };
  r->Add("labeling.label_bytes", value("labeling.label_bytes"), "B/node");
  r->Add("query.clade_nodes", value("query.clade_nodes"), "count");
  r->Add("crimson.experiment_self_us", value("crimson.experiment_self_us"),
         "us");

  auto c = [&](const char* name) {
    return static_cast<double>(m.counter(name));
  };
  r->Add("cache.hit_ratio",
         Ratio(c("cache.hits"), c("cache.hits") + c("cache.misses")), "ratio");
  r->Add("cache.evictions", c("cache.evictions"), "count");
  r->Add("crack.piece_hit_ratio",
         Ratio(c("crack.piece_hits"), c("crack.batches")), "ratio");
  r->Add("crack.sequences_loaded", c("crack.sequences_loaded"), "count");
  r->Add("storage.pool.hit_ratio",
         Ratio(c("storage.pool.hits"),
               c("storage.pool.hits") + c("storage.pool.misses")),
         "ratio");
  r->Add("storage.pool.misses", c("storage.pool.misses"), "count");
  r->Add("storage.pool.evictions", c("storage.pool.evictions"), "count");
  r->Add("storage.pool.dirty_writebacks", c("storage.pool.dirty_writebacks"),
         "count");
  r->Add("storage.wal.bytes_per_node",
         Ratio(c("storage.wal.bytes"), counts.nodes_stored), "B/node");
  r->Add("storage.wal.fsyncs_per_op",
         Ratio(c("storage.wal.fsyncs"), counts.ops), "count/op");
  r->Add("net.queries_per_batch",
         Ratio(c("net.queries_executed"), c("net.batches_executed")), "count");
  const crimson::obs::HistogramSnapshot* wait =
      m.histogram("net.admission_wait_us");
  r->Add("net.admission_wait_us", wait ? wait->mean() : 0.0, "us");
  r->Add("net.retry_afters", c("net.retry_afters_sent"), "count");
  r->Add("obs.trace_overhead_pct",
         100.0 * (Ratio(counts.untraced_ops_per_s, counts.traced_ops_per_s) - 1),
         "%");
}

}  // namespace e2e
