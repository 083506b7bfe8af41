/**
 * @file
 * HashJoin: the probe phase of a database hash join (Table 1: 480 GB MS /
 * 17 GB WM) — random bucket reads with occasional overflow-chain hops,
 * then a payload fetch from the tuple arena.
 */

#ifndef MITOSIM_WORKLOADS_HASHJOIN_H
#define MITOSIM_WORKLOADS_HASHJOIN_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Hash-table probing over a bucket array and a tuple arena. */
class HashJoin : public Workload
{
  public:
    explicit HashJoin(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "hashjoin"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new HashJoin(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t BucketBytes = 64; //!< one line
    static constexpr std::uint64_t TupleBytes = 64;
    static constexpr double OverflowChainProb = 0.25;

    VirtAddr buckets = 0;
    VirtAddr tuples = 0;
    std::uint64_t numBuckets = 0;
    std::uint64_t numTuples = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_HASHJOIN_H
