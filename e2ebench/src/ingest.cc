// ingest: the write path. Each op parses one distinct seeded Yule
// Newick text (50k leaves, ~100k nodes), stores it with LoadNewick
// into a database that already holds a tree, and checkpoints. After
// the timed ops the session is closed and reopened and every stored
// tree is cold-bound and written back to Newick, which must equal its
// input byte for byte.

#include <iostream>
#include <string>
#include <vector>

#include "crimson/crimson.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr uint32_t kLeaves = 50000;

std::string MakeText(uint64_t seed, uint64_t i) {
  crimson::Rng rng(seed * 0x100000001B3ull + i);
  crimson::YuleOptions yo;
  yo.n_leaves = kLeaves;
  return crimson::WriteNewick(Unwrap(crimson::SimulateYule(yo, &rng), "Yule"));
}

struct Stored {
  std::string name;
  std::string text;
};

struct Phase {
  double seconds = 0;
  uint64_t ops = 0;
};

/// Stores fresh trees until `seconds` of op time have passed; input
/// generation sits outside the timed part.
Phase StoreLoop(const Args& a, Fixture* f, double seconds, Tracer* tr,
                std::vector<Stored>* stored, EndToEnd* e, Report* r) {
  Phase p;
  int64_t spent = 0;
  while (spent < static_cast<int64_t>(seconds * 1e9)) {
    Stored next{"t" + std::to_string(stored->size()),
                MakeText(a.seed, stored->size())};
    const int64_t t0 = NowNs();
    bool ok = true;
    try {
      StoreNewick(f->s.get(), next.name, next.text, tr,
                  static_cast<uint32_t>(stored->size()));
    } catch (const BenchError& err) {
      std::cerr << "store failed: " << err.what() << "\n";
      ok = false;
    }
    const int64_t t1 = NowNs();
    spent += t1 - t0;
    e->op_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ++p.ops;
    ++r->attempted;
    if (ok) {
      stored->push_back(std::move(next));
    } else {
      ++r->failed;
    }
    // Every stored tree stays bound in the session, so the process
    // grows with the op count, which follows throughput; the reported
    // peak is set-up plus one store.
    if (e->peak_rss_mb == 0) e->peak_rss_mb = PeakRssMb();
  }
  p.seconds = static_cast<double>(spent) / 1e9;
  return p;
}

}  // namespace

void RunIngest(const Args& a, Report* r) {
  std::vector<Stored> stored = {{"base", MakeText(a.seed, 0)}};
  const double nodes_per_tree = ParseNewickText(stored[0].text).size();

  EndToEnd e;
  Tracer tr(a.trace);
  Tracer off(false);
  r->info["inputs_rss_mb"] = std::to_string(PeakRssMb());
  Fixture f = SetUp(
      a, "base", nodes_per_tree,
      [&](crimson::Crimson* s) { StoreNewick(s, "base", stored[0].text, &tr, 0); },
      nullptr, &e, &tr);

  Phase plain, traced;
  crimson::obs::MetricsSnapshot store_metrics;
  if (!a.trace) {
    plain = StoreLoop(a, &f, a.seconds, &off, &stored, &e, r);
    e.phase_s = plain.seconds;
    e.ops = plain.ops;
  } else {
    EndToEnd scratch;
    plain = StoreLoop(a, &f, a.seconds / 2, &off, &stored, &scratch, r);
    traced = StoreLoop(a, &f, a.seconds / 2, &tr, &stored, &scratch, r);
    store_metrics = f.s->SnapshotMetrics();
  }
  // What each store into the non-empty file added, after the last op's
  // checkpoint (the first store, into an empty file, is smaller).
  const double setup_bytes = e.db_bytes_per_node * nodes_per_tree;
  e.db_bytes_per_node =
      (static_cast<double>(f.dir->Bytes()) - setup_bytes) /
      (nodes_per_tree * static_cast<double>(stored.size() - 1));

  // Cold reopen: bind every stored tree and write it back.
  f.s.reset();
  f.s = Reopen(DbPath(*f.dir), a.seed, &tr);
  for (const Stored& st : stored) {
    crimson::TreeRef ref = TimedOpenTree(f.s.get(), st.name, &e.open_ms);
    const crimson::PhyloTree* t = Unwrap(f.s->GetTree(ref), "GetTree");
    r->checks.Expect(crimson::WriteNewick(*t) == st.text,
                     "Newick round trip of " + st.name);
    f.ref = ref;
  }
  QueryGen gen(ParseNewickText(stored.back().text), a.seed + 17);
  const std::string last = stored.back().name;
  if (!a.trace) {
    ProbeKinds(f.s.get(), f.ref, last, &gen, &e, &r->checks);
    AddEndToEnd(e, r);
  } else {
    LayerKit kit(Unwrap(f.s->GetTree(f.ref), "GetTree"));
    ProbeLayers(a, f.s.get(), f.ref, last, &gen, true, &tr, &kit,
                &r->checks);
    LayerCounts counts;
    counts.nodes_stored = nodes_per_tree * static_cast<double>(plain.ops + traced.ops);
    counts.ops = static_cast<double>(plain.ops + traced.ops);
    counts.untraced_ops_per_s = plain.ops / plain.seconds;
    counts.traced_ops_per_s = traced.ops / traced.seconds;
    AddPerLayer(tr, Combine(store_metrics, f.s->SnapshotMetrics()), counts, r);
    tr.WriteTsv(a.work_dir + "/spans-ingest.tsv");
  }
  r->info["connections"] = "1";
  r->info["trees_stored"] = std::to_string(stored.size());
  r->info["tree_nodes"] = std::to_string(static_cast<int64_t>(nodes_per_tree));
  r->info["tree_leaves"] = std::to_string(kLeaves);
}

}  // namespace e2e
