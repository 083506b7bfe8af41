/**
 * @file
 * Memcached: GET-dominated key-value caching (Table 1: 350 GB, the
 * Figure 3 dump subject). Skewed key popularity, a hash-bucket read, an
 * item-header read and a value read; 10% SETs write the value.
 */

#ifndef MITOSIM_WORKLOADS_MEMCACHED_H
#define MITOSIM_WORKLOADS_MEMCACHED_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Key-value cache traffic with a hot set. */
class Memcached : public Workload
{
  public:
    explicit Memcached(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "memcached"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new Memcached(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t BucketBytes = 64;
    static constexpr std::uint64_t ItemBytes = 512; //!< header + value
    static constexpr double SetRatio = 0.10;

    VirtAddr buckets = 0;
    VirtAddr items = 0;
    std::uint64_t numBuckets = 0;
    std::uint64_t numItems = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_MEMCACHED_H
