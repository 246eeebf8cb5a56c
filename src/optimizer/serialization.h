// Copyright (c) the pdexplore authors.
// Text serialization of schemas, workloads and configurations.
//
// A physical design tool's artifacts outlive a process: traced workloads
// are tuned later, recommended configurations are reviewed before
// deployment, and experiments must be reproducible from files. This module
// persists the simulator's objects in a line-oriented, versioned, human-
// diffable text format (one record per line, tab-separated fields,
// nested lists comma-separated).
//
// Round-trip guarantees (covered by tests): Load(Save(x)) reproduces the
// object exactly — including per-predicate selectivities, so costs computed
// from a reloaded workload are bit-identical.
#pragma once

#include <cstddef>
#include <string>

#include "catalog/schema.h"
#include "common/status.h"
#include "optimizer/physical_design.h"
#include "workload/workload.h"

namespace pdx {

/// Serializes a schema (tables, columns, statistics).
Status SaveSchema(const Schema& schema, const std::string& path);
Result<Schema> LoadSchema(const std::string& path);

/// Serializes a workload (templates and full query IR). The schema is
/// referenced by name and validated on load.
Status SaveWorkload(const Workload& workload, const std::string& path);
/// `schema` must outlive the returned workload. Every template record must
/// precede the first query record (SaveWorkload writes them that way).
/// Query records are decoded in parallel on GlobalThreadPool(); the result,
/// and the first error in file order, do not depend on the thread count.
Result<Workload> LoadWorkload(const std::string& path, const Schema& schema);

/// LoadWorkload cuts the query records into chunks of at least this many
/// bytes, each ending at an "end" line, and decodes the chunks in parallel.
inline constexpr size_t kWorkloadChunkBytes = size_t{1} << 17;

/// Serializes a configuration (indexes and materialized views).
Status SaveConfiguration(const Configuration& config, const Schema& schema,
                         const std::string& path);
Result<Configuration> LoadConfiguration(const std::string& path,
                                        const Schema& schema);

}  // namespace pdx
