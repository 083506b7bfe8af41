/**
 * @file
 * Redis: single-threaded-style key-value store traffic (Table 1: 75 GB,
 * WM scenario). Deeper pointer chase than Memcached: dict entry ->
 * object header -> value string, all in different arenas.
 */

#ifndef MITOSIM_WORKLOADS_REDIS_H
#define MITOSIM_WORKLOADS_REDIS_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Dict-entry / robj / sds chase per GET. */
class Redis : public Workload
{
  public:
    explicit Redis(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "redis"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new Redis(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t EntryBytes = 64;
    static constexpr std::uint64_t ObjBytes = 64;
    static constexpr std::uint64_t ValueBytes = 256;
    static constexpr double WriteRatio = 0.05;

    VirtAddr entries = 0;
    VirtAddr objects = 0;
    VirtAddr values = 0;
    std::uint64_t numKeys = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_REDIS_H
