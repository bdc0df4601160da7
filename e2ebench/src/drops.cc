// drop_probe: a diagnostic, not a benchmark workload. It stores
// several 100k-node trees into one database, then drops them one by
// one, printing each store's and drop's time and the file size after
// each checkpoint. DropTree is kept out of the workloads because its
// time grows with every drop (no run containing drops is steady);
// this records those figures instead, next to the bytes per node on
// disk and in memory.

#include <iostream>

#include "crimson/crimson.h"
#include "sim/tree_sim.h"
#include "tree/newick.h"
#include "workloads.h"

namespace e2e {

void RunDropProbe(const Args& a, Report* r) {
  constexpr int kTrees = 4;
  TempDir dir(a.work_dir + "/tmp", "drop_probe");
  auto s = Unwrap(crimson::Crimson::Open(SessionOptions(DbPath(dir), a.seed)),
                  "open");
  Tracer off(false);
  double nodes = 0;
  for (int i = 0; i < kTrees; ++i) {
    crimson::Rng rng(a.seed * 7 + i);
    crimson::YuleOptions yo;
    yo.n_leaves = 50000;
    const crimson::PhyloTree tree =
        Unwrap(crimson::SimulateYule(yo, &rng), "Yule");
    const std::string text = crimson::WriteNewick(tree);
    nodes += tree.size();
    const int64_t t0 = NowNs();
    StoreNewick(s.get(), "t" + std::to_string(i), text, &off, 0);
    const double sec = static_cast<double>(NowNs() - t0) / 1e9;
    std::cout << "store t" << i << " s=" << sec << " file_mb="
              << dir.Bytes() / 1048576.0 << " disk_bytes_per_node="
              << dir.Bytes() / nodes << " memory_bytes_per_node="
              << static_cast<double>(tree.MemoryFootprintBytes()) / tree.size()
              << "\n";
    r->Add("store_s.t" + std::to_string(i), sec, "s");
    ++r->attempted;
  }
  for (int i = 0; i < kTrees; ++i) {
    const int64_t t0 = NowNs();
    const crimson::Status st = s->DropTree("t" + std::to_string(i));
    const double sec = static_cast<double>(NowNs() - t0) / 1e9;
    ++r->attempted;
    if (!st.ok()) ++r->failed;
    CheckOk(s->Checkpoint(), "Checkpoint");
    std::cout << "drop t" << i << " s=" << sec
              << " file_mb=" << dir.Bytes() / 1048576.0 << "\n";
    r->Add("drop_s.t" + std::to_string(i), sec, "s");
  }
  r->Add("file_mb_after_drops", dir.Bytes() / 1048576.0, "MiB");
}

}  // namespace e2e
