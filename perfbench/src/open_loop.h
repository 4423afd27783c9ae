// Open-loop accounting for the serve-mix workload. Requests are due on a
// fixed schedule whatever the server does; each is timed from when it was
// due, so a stall that delays the generator or queues requests is charged
// to every request it holds up, and the generator's own lateness is
// reported separately.
#pragma once

#include <cstddef>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Due offsets (seconds from the phase start) of n requests at `rate`
/// requests per second: request i is due at i / rate.
std::vector<double> uniform_schedule(size_t n, double rate);

/// Timestamps of one request, seconds from the phase start.
struct RequestTiming {
    double due = 0;   ///< when the schedule wanted it sent
    double sent = 0;  ///< when its first byte was written
    double done = 0;  ///< when its response line was complete
};

/// Latency as the client of an open loop sees it: done − due.
double latency_from_due(const RequestTiming& t);
/// How late the generator started sending: max(0, sent − due).
double generator_lateness(const RequestTiming& t);

/// Verdict on one rate of the max_rps ladder.
struct RungVerdict {
    bool pass = false;
    Percentile tail;    ///< tail latency from due, seconds
    double growth = 0;  ///< least-squares slope of latency over due time
};

/// Least-squares slope of latency (from due) over due time, in seconds of
/// latency per second of schedule. A server that keeps up holds it near
/// 0; one offered (1 + x) times what it can serve builds a backlog whose
/// latency grows at about x.
double latency_growth(const std::vector<RequestTiming>& timings);

/// A rate is sustained when every request succeeded, the tail latency
/// stays within `limit_s` and the backlog grows by at most `max_growth`
/// (latency_growth). `ok[i]` tells whether request i succeeded.
RungVerdict judge_rung(const std::vector<RequestTiming>& timings,
                       const std::vector<bool>& ok, double limit_s,
                       double max_growth);

}  // namespace perfbench
