/**
 * @file
 * XSBench: the Monte Carlo neutronics macroscopic-cross-section lookup
 * kernel (Table 1: 440 GB MS / 85 GB WM). Each lookup binary-searches the
 * unionized energy grid, then gathers per-nuclide cross-section rows —
 * a burst of dependent, effectively random reads.
 */

#ifndef MITOSIM_WORKLOADS_XSBENCH_H
#define MITOSIM_WORKLOADS_XSBENCH_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Unionized-grid cross-section lookups. */
class XsBench : public Workload
{
  public:
    explicit XsBench(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "xsbench"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new XsBench(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t GridEntryBytes = 64;
    static constexpr std::uint64_t XsRowBytes = 64;
    static constexpr unsigned NuclidesPerLookup = 5;

    VirtAddr grid = 0;
    VirtAddr xs = 0;
    std::uint64_t gridEntries = 0;
    std::uint64_t xsRows = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_XSBENCH_H
