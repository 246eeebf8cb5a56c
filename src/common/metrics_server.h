// Copyright (c) the pdexplore authors.
// HTTP pieces of the metric registry's exporter: the pure /metrics and
// /healthz response function (Prometheus text exposition, straight from
// obs::Registry) and the socket helpers (deadline-bounded head reads,
// EINTR-safe writes). The selection daemon in src/service/server answers
// /metrics scrapes on its own port with them.
#pragma once

#include <cstddef>
#include <string>

namespace pdx::obs {

/// Outcome of ReadUntilDelimiter: why the read loop stopped.
enum class ReadOutcome {
  kComplete,   // delimiter seen; *out holds everything read
  kEof,        // peer closed before the delimiter
  kDeadline,   // read_deadline_ms elapsed without the delimiter
  kTooLarge,   // max_bytes exceeded without the delimiter
  kError,      // read()/poll() failed (errno preserved)
};

/// Reads from `fd` until `delimiter` appears in the accumulated bytes,
/// EOF, `max_bytes`, or `deadline_ms` elapses (0 = no deadline).
/// Retries EINTR on both poll() and read(). The accumulated bytes —
/// including anything after the delimiter — are appended to *out.
/// The service daemon reads HTTP heads (delimiter "\r\n\r\n") and its
/// line protocol (delimiter "\n") with it.
ReadOutcome ReadUntilDelimiter(int fd, const char* delimiter,
                               size_t max_bytes, int deadline_ms,
                               std::string* out);

/// Writes all of `data` to the socket, retrying EINTR and short writes;
/// sends with MSG_NOSIGNAL so a peer hang-up cannot SIGPIPE the
/// process. Returns false on any other error.
bool SendAll(int fd, const std::string& data);

/// The full HTTP response for one request head (everything up to the
/// blank line). Pure function of the request and the registry — the
/// daemon and the tests share it. Query strings and fragments are
/// stripped before dispatch (`GET /metrics?x=y` serves /metrics). Bumps
/// pdx_exporter_requests_total.
std::string MetricsHttpResponse(const std::string& request_head);

}  // namespace pdx::obs
