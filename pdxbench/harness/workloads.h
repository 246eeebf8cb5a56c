// The benchmark's workloads. Each runs its set-up, a timed closed loop of
// ops for args.seconds (and at least a minimum op count), the
// correctness gate, and fills `report` with the end-to-end metrics and —
// when `tracer` is non-null — the per-layer metrics of the traced run.
#pragma once

#include "common.h"
#include "trace.h"

namespace pdxbench {

/// One client running the batch `compare` path in-process per op: load
/// the artifacts, build the optimizer and exact cache, select.
void RunCliCompare(const Args& args, Tracer* tracer, Report* report);

/// One client running a fresh exact cache over live what-if plus one
/// selection per op, on a skewed scenario workload built in set-up.
void RunSelectSkewed(const Args& args, Tracer* tracer, Report* report);

/// Four clients in a closed loop against an in-process selection daemon
/// on loopback: a mix of compare and tune sessions over three warm
/// catalogs.
void RunServeMix(const Args& args, Tracer* tracer, Report* report);

}  // namespace pdxbench
