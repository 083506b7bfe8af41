/**
 * @file
 * Ablation (§5.2): cost of propagating one PTE store to all replicas,
 * circular struct-page list (2N references) vs walking every replica
 * tree (4N+N references), across replica counts. The figure of merit is
 * *simulated* kernel cycles per update — fully deterministic, so the
 * matrix runs as ordinary driver jobs (host time would also measure the
 * implementation, which is not the reproduction target).
 */

#include "bench/harness.h"

#include "src/driver/bench_main.h"
#include "src/mem/physical_memory.h"
#include "src/pt/operations.h"

using namespace mitosim;
using namespace mitosim::bench;

namespace
{

constexpr int ReplicaCounts[] = {1, 2, 4, 8};
constexpr std::uint64_t Updates = 4096;

struct Rig
{
    explicit Rig(int sockets, core::UpdateMode mode)
        : topo([sockets] {
              numa::TopologyConfig cfg;
              cfg.numSockets = sockets;
              cfg.coresPerSocket = 1;
              cfg.memPerSocket = 16ull << 20;
              return cfg;
          }()),
          pm(topo),
          backend(pm,
                  [mode] {
                      core::MitosisConfig cfg;
                      cfg.updateMode = mode;
                      return cfg;
                  }()),
          ops(pm, backend)
    {
        if (!ops.createRoot(roots, 1, 0, nullptr))
            fatal("rig: out of memory");
        pt::PtPlacementPolicy policy;
        auto data = pm.allocData(0, 1, 0x1000);
        if (!ops.map4K(roots, 1, 0x1000, *data, pt::PteWrite, policy, 0,
                       nullptr))
            fatal("rig: map failed");
        backend.setReplicationMask(roots, 1, SocketMask::all(sockets));
        loc = ops.walk(roots, 0x1000).loc;
    }

    ~Rig() { ops.destroy(roots, nullptr); }

    numa::Topology topo;
    mem::PhysicalMemory pm;
    core::MitosisBackend backend;
    pt::PageTableOps ops;
    pt::RootSet roots;
    pt::PteLoc loc;
};

driver::JobResult
replicaUpdateJob(int replicas, core::UpdateMode mode)
{
    Rig rig(replicas, mode);
    std::uint64_t sim_cycles = 0;
    for (std::uint64_t i = 0; i < Updates; ++i) {
        pvops::KernelCost cost;
        std::uint64_t flag =
            (i & 1) ? std::uint64_t{pt::PteNumaHint} : 0;
        rig.backend.setPte(rig.roots, rig.loc,
                           pt::Pte::make(7, pt::PtePresent | flag), 1,
                           &cost);
        sim_cycles += cost.cycles;
    }
    driver::JobResult result;
    result.value("replicas", replicas);
    result.value("updates", static_cast<double>(Updates));
    result.value("sim_cycles_per_update",
                 static_cast<double>(sim_cycles) /
                     static_cast<double>(Updates));
    return result;
}

const char *
modeName(core::UpdateMode mode)
{
    return mode == core::UpdateMode::CircularList ? "circular-list"
                                                  : "walk-replicas";
}

} // namespace

int
main(int argc, char **argv)
{
    driver::BenchSpec spec;
    spec.name = "abl_replica_update";
    spec.title = "Ablation: PTE-update propagation, circular "
                 "struct-page list (2N refs) vs walking every replica "
                 "tree (4N+N refs)";
    spec.registerJobs = [](driver::JobRegistry &registry) {
        for (int replicas : ReplicaCounts) {
            for (core::UpdateMode mode :
                 {core::UpdateMode::CircularList,
                  core::UpdateMode::WalkReplicas}) {
                registry.add(format("replicas=%d/%s", replicas,
                                    modeName(mode)),
                             [replicas, mode] {
                                 return replicaUpdateJob(replicas,
                                                         mode);
                             });
            }
        }
    };
    spec.emit = [](const std::vector<driver::JobResult> &results,
                   BenchReport &report) {
        std::printf("%-10s %20s %20s %10s\n", "replicas",
                    "circular-list", "walk-replicas", "ratio");
        std::size_t i = 0;
        for (int replicas : ReplicaCounts) {
            const driver::JobResult &circular = results[i++];
            const driver::JobResult &walk = results[i++];
            double c = circular.valueOf("sim_cycles_per_update");
            double w = walk.valueOf("sim_cycles_per_update");
            std::printf("%-10d %20.1f %20.1f %9.2fx\n", replicas, c, w,
                        w / c);
            for (const driver::JobResult *res : {&circular, &walk}) {
                BenchRun &run = report.addRun(format(
                    "replicas=%d %s", replicas,
                    res == &circular ? "circular-list"
                                     : "walk-replicas"));
                run.tag("mode", res == &circular ? "circular-list"
                                                 : "walk-replicas");
                for (const auto &[key, value] : res->values)
                    run.metric(key, value);
            }
            report.speedup(format("replicas=%d walk/circular",
                                  replicas),
                           w / c);
        }
        std::printf("\n(sim cycles per update; circular list stays "
                    "~2N references while walking replica trees pays "
                    "4N+N)\n");
    };
    return driver::benchMain(argc, argv, spec);
}
