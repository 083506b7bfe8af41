/**
 * @file
 * LibLinear: dual coordinate-descent training of a linear classifier
 * (Table 1: 67 GB, WM scenario). Streams one sample's feature vector
 * sequentially, then updates the weight vector at that sample's sparse
 * nonzero indices — a streaming-heavy workload with a modest random
 * component, hence the smallest remote-page-table penalty in Figure 10a.
 */

#ifndef MITOSIM_WORKLOADS_LIBLINEAR_H
#define MITOSIM_WORKLOADS_LIBLINEAR_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** Feature-matrix sweeps with sparse weight updates. */
class LibLinear : public Workload
{
  public:
    explicit LibLinear(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "liblinear"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new LibLinear(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t SampleBytes = 512; //!< 8 lines/sample
    static constexpr unsigned SparseUpdates = 3;

    VirtAddr features = 0;
    VirtAddr weights = 0;
    std::uint64_t numSamples = 0;
    std::uint64_t numWeights = 0;
    std::vector<std::uint64_t> cursor;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_LIBLINEAR_H
