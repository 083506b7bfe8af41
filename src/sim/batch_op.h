/**
 * @file
 * The batched-replay operation record and the run-fusion gate.
 *
 * Workloads pre-generate short runs of BatchOp into per-thread buffers
 * (Workload::stepBatch) and ExecContext::runBatch replays them along
 * one of two paths. The default pinned path *fuses* maximal runs of
 * consecutive same-page accesses (Core::accessRun): one real TLB probe
 * and one real cache probe per distinct line, with the remainder
 * charged in bulk. Fusion is exact — see accessRun — and
 * MITOSIM_FUSE=0 selects the other path, the per-op reference loop,
 * so CI can diff the two for byte-identical reports.
 */

#ifndef MITOSIM_SIM_BATCH_OP_H
#define MITOSIM_SIM_BATCH_OP_H

#include "src/base/types.h"

namespace mitosim::sim
{

/**
 * One pre-generated workload operation for the batched stepping path:
 * either a memory access or a compute charge.
 */
struct BatchOp
{
    VirtAddr va = 0;
    Cycles cycles = 0; //!< compute ops: the charged amount
    bool isWrite = false;
    bool isCompute = false;
};

/**
 * Host-side toggle for run fusion inside ExecContext::runBatch. On by
 * default; MITOSIM_FUSE=0 forces the per-op reference loop. Read once
 * from the environment: flipping it mid-run is not a supported mode.
 */
bool fuseEnabled();

/**
 * Test-only override of fuseEnabled(): 0 forces per-op replay, 1
 * forces the fused path, -1 restores the environment setting. The
 * batched-stepping property test compares both paths in one process;
 * production code never calls this.
 */
void setFuseEnabledForTest(int enabled);

} // namespace mitosim::sim

#endif // MITOSIM_SIM_BATCH_OP_H
