/**
 * @file
 * The benchmark's workloads (see perfbench/README.md for why each
 * exists and what it should move).
 */

#pragma once

#include "common.hpp"

namespace perfbench {

/** serve-read (inference only) and serve-mixed (20% edge updates):
 *  open-loop real-time serving interleaved with saturation bursts;
 *  see README. */
RunResult runServeWorkload(const RunArgs &args, bool mixed);

/** island-batch: repeated islandize + 2-layer island-consumer
 *  forward over a 200k-node graph, no serving. */
RunResult runIslandWorkload(const RunArgs &args);

} // namespace perfbench
