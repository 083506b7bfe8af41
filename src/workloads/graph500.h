/**
 * @file
 * Graph500: BFS over a synthetic Kronecker-style graph (Table 1: 420 GB,
 * multi-socket scenario). The graph is generated by the main rank
 * (first-touch skew towards one socket, §3.1 observation 2); traversal
 * reads edge lists semi-sequentially and pokes the visited map randomly.
 */

#ifndef MITOSIM_WORKLOADS_GRAPH500_H
#define MITOSIM_WORKLOADS_GRAPH500_H

#include <vector>

#include <memory>

#include "src/workloads/workload.h"

namespace mitosim::workloads
{

/** BFS-flavoured edge exploration. */
class Graph500 : public Workload
{
  public:
    explicit Graph500(const WorkloadParams &params) : Workload(params) {}

    const char *name() const override { return "graph500"; }
    std::unique_ptr<Workload> clone() const override
    {
        return std::unique_ptr<Workload>(new Graph500(*this));
    }
    void setup(os::ExecContext &ctx) override;
    bool stepBatch(int tid, unsigned nsteps,
                   std::vector<os::BatchOp> &out) override;

  private:
    void genStep(detail::BufSink &sink, int tid);

    static constexpr std::uint64_t AvgDegree = 16;
    static constexpr std::uint64_t EdgeBytes = 8;

    VirtAddr edges = 0;
    VirtAddr visited = 0;
    std::uint64_t numVertices = 0;
    std::vector<Rng> rngs;
};

} // namespace mitosim::workloads

#endif // MITOSIM_WORKLOADS_GRAPH500_H
