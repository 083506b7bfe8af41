/**
 * @file
 * Canneal (PARSEC): cache-aware simulated annealing of chip routing
 * (Table 1: 382 GB MS / 32 GB WM; the paper's best multi-socket case at
 * 1.34x). Each step picks two random netlist elements, reads both and a
 * few of their neighbours, and swaps them — uniformly random traffic
 * over a huge element array.
 */

#ifndef MITOSIM_WORKLOADS_CANNEAL_H
#define MITOSIM_WORKLOADS_CANNEAL_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Random element swaps with neighbour reads. */
class Canneal : public Workload
{
  public:
    explicit Canneal(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "canneal"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new Canneal(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t ElementBytes = 128;
    static constexpr unsigned NeighbourReads = 2;

    VirtAddr elements = 0;
    std::uint64_t numElements = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_CANNEAL_H
