// query_mix: one closed-loop client calling Crimson::Execute on a
// cold-bound 50k-leaf Yule tree with the mixed query kinds. Species
// are drawn uniformly, so repeats are near zero and the result cache
// only misses: session overhead and the query processors do the work.

#include <functional>
#include <string>
#include <unordered_set>

#include "crimson/crimson.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr uint32_t kLeaves = 50000;
constexpr size_t kChunk = 1024;
constexpr int kWarmupOps = 1000;
const char* const kTree = "gold";

struct Phase {
  double seconds = 0;
  uint64_t ops = 0;
};

/// Runs the mix until `seconds` of op time have passed. Queries are
/// made and answers checked a chunk at a time, outside the timed part.
Phase RunMix(crimson::Crimson* s, crimson::TreeRef ref, QueryGen* gen,
             double seconds, Tracer* tr, LayerKit* kit, EndToEnd* e,
             std::unordered_set<uint64_t>* seen, uint64_t* repeats,
             Report* r) {
  Phase p;
  int64_t spent = 0;
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  std::vector<GenQuery> qs;
  std::vector<crimson::Result<crimson::QueryResult>> out;
  while (spent < budget) {
    qs.clear();
    out.clear();
    for (size_t i = 0; i < kChunk; ++i) qs.push_back(gen->Make(gen->DrawMixKind()));
    const int64_t chunk_start = NowNs();
    for (const GenQuery& q : qs) {
      const int64_t t0 = NowNs();
      out.push_back(RunQuery(s, ref, kTree, q, tr, kit,
                             static_cast<uint32_t>(p.ops + out.size())));
      const double us = static_cast<double>(NowNs() - t0) / 1e3;
      e->op_us.push_back(us);
      e->kind_us[static_cast<int>(q.kind)].push_back(us);
      if (spent + NowNs() - chunk_start >= budget) break;
    }
    spent += NowNs() - chunk_start;
    for (size_t i = 0; i < out.size(); ++i) {
      if (!out[i].ok()) {
        ++r->failed;
        continue;
      }
      gen->Check(qs[i], *out[i], &r->checks);
      if (qs[i].kind != Kind::kSampleUniform && qs[i].kind != Kind::kSampleTime &&
          !seen->insert(std::hash<std::string>()(
                            crimson::EncodeQueryParams(kTree, qs[i].request)))
               .second) {
        ++*repeats;
      }
    }
    p.ops += out.size();
  }
  p.seconds = static_cast<double>(spent) / 1e9;
  r->attempted += p.ops;
  return p;
}

}  // namespace

void RunQueryMix(const Args& a, Report* r) {
  std::string text;
  {
    crimson::Rng rng(a.seed);
    crimson::YuleOptions yo;
    yo.n_leaves = kLeaves;
    text = crimson::WriteNewick(Unwrap(crimson::SimulateYule(yo, &rng), "Yule"));
  }
  QueryGen gen(ParseNewickText(text), a.seed * 0x9E3779B97F4A7C15ull + 1);
  const double nodes = gen.tree().size();

  EndToEnd e;
  Tracer tr(a.trace);
  std::vector<GenQuery> warm_qs;
  for (int i = 0; i < kWarmupOps * kSetups; ++i) {
    warm_qs.push_back(gen.Make(gen.DrawMixKind()));
  }
  std::vector<crimson::Result<crimson::QueryResult>> warm_out;
  r->info["inputs_rss_mb"] = std::to_string(PeakRssMb());
  Fixture f = SetUp(
      a, kTree, nodes,
      [&](crimson::Crimson* s) { StoreNewick(s, kTree, text, &tr, 0); },
      [&](Fixture* fx) {
        for (int i = 0; i < kWarmupOps; ++i) {
          warm_out.push_back(fx->s->Execute(fx->ref, warm_qs[warm_out.size()].request));
        }
      },
      &e, &tr);
  for (size_t i = 0; i < warm_out.size(); ++i) {
    r->checks.Expect(warm_out[i].ok(), "warm-up query");
    if (warm_out[i].ok()) gen.Check(warm_qs[i], *warm_out[i], &r->checks);
  }
  const crimson::PhyloTree* stored = Unwrap(f.s->GetTree(f.ref), "GetTree");
  r->checks.Expect(SameShape(*stored, gen.tree()), "stored tree shape");

  Tracer off(false);
  std::unordered_set<uint64_t> seen;  // hashed parameters of each query
  uint64_t repeats = 0;
  if (!a.trace) {
    const Phase p = RunMix(f.s.get(), f.ref, &gen, a.seconds, &off, nullptr, &e,
                           &seen, &repeats, r);
    e.phase_s = p.seconds;
    e.ops = p.ops;
    const crimson::cache::CacheStats cs = f.s->GetCacheStats();
    r->info["cache_hit_ratio"] =
        std::to_string(static_cast<double>(cs.hits) / (cs.hits + cs.misses));
    r->info["repeat_share"] =
        std::to_string(static_cast<double>(repeats) / (cs.hits + cs.misses));
    ReopenCycles(a, &f, kTree, kReopens, &e, &off);
    AddEndToEnd(e, r);
  } else {
    EndToEnd scratch;
    const Phase plain = RunMix(f.s.get(), f.ref, &gen, a.seconds / 2, &off,
                               nullptr, &scratch, &seen, &repeats, r);
    LayerKit kit(stored);
    const Phase traced = RunMix(f.s.get(), f.ref, &gen, a.seconds / 2, &tr,
                                &kit, &scratch, &seen, &repeats, r);
    ProbeLayers(a, f.s.get(), f.ref, kTree, &gen, false, &tr,
                &kit, &r->checks);
    LayerCounts counts;
    counts.nodes_stored = nodes;
    counts.ops = static_cast<double>(plain.ops + traced.ops);
    counts.untraced_ops_per_s = plain.ops / plain.seconds;
    counts.traced_ops_per_s = traced.ops / traced.seconds;
    AddPerLayer(tr, f.s->SnapshotMetrics(), counts, r);
    tr.WriteTsv(a.work_dir + "/spans-query_mix.tsv");
  }
  r->info["connections"] = "1";
  r->info["tree_nodes"] = std::to_string(gen.tree().size());
  r->info["tree_leaves"] = std::to_string(gen.leaf_count());
}

}  // namespace e2e
