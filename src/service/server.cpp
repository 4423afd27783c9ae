#include "service/server.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <istream>
#include <map>
#include <ostream>
#include <thread>
#include <utility>

namespace phpsafe::service {

void SyncLineWriter::write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line << "\n" << std::flush;
}

AnalysisServer::AnalysisServer(ServerOptions options)
    : options_(std::move(options)),
      owned_service_(std::make_unique<AnalysisService>(options_.service)),
      service_(owned_service_.get()) {}

AnalysisServer::AnalysisServer(AnalysisService& service, ServerOptions options)
    : options_(std::move(options)), service_(&service) {}

AnalysisServer::~AnalysisServer() = default;

namespace {

/// One response the session owes its client, in request order. Scan items
/// carry the ticket the writer must await (and the fingerprint and request
/// number that key it in the session's pending-scan map); everything else
/// carries a deferred renderer, evaluated only when the writer reaches it —
/// so a `stats` request observes every scan the session submitted before
/// it, and `clear` cannot race past an in-flight earlier scan of its own
/// session. stats/clear are additionally *barriers*: the reader stops
/// submitting until their renderer has run, so the snapshot they take is
/// exactly what a serial replay would see (no later scan of this session
/// has been admitted yet).
struct SessionItem {
    AnalysisService::Ticket ticket;
    std::function<std::string()> render;
    uint64_t fingerprint = 0;
    int request = 0;
};

/// A scan of this session whose response has not been written yet.
struct PendingSessionScan {
    int request = 0;  ///< 1-based request number within the session
    AnalysisService::Ticket ticket;
};

/// The in-order response pump of one session. The reader thread pushes,
/// the writer thread pops; close() marks the end of the request stream.
class SessionQueue {
public:
    void push(SessionItem item) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            items_.push_back(std::move(item));
        }
        cv_.notify_one();
    }

    void close() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        cv_.notify_one();
    }

    /// Pops the next item; false once the queue is closed and drained.
    bool pop(SessionItem& out) {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty()) return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<SessionItem> items_;
    bool closed_ = false;
};

}  // namespace

int AnalysisServer::serve_session(std::istream& in, SyncLineWriter& out,
                                  int base_priority) {
    AnalysisService& service = *service_;
    const bool deterministic = options_.deterministic;

    // Per-session watch state. Touched only from the writer thread (watch
    // ops are barrier items), so no lock of its own is needed.
    WatchSession watch(service);

    // This session's unanswered scans by request fingerprint. A scan that
    // repeats one of them waits for it before submitting, so it sees what
    // serial replay sees — a result-cache hit — instead of coalescing onto
    // the still-running first scan. Entries leave once answered.
    // Coalescing across sessions is untouched.
    std::mutex pending_mutex;
    std::map<uint64_t, PendingSessionScan> pending;

    SessionQueue queue;
    std::thread writer([&] {
        SessionItem item;
        while (queue.pop(item)) {
            if (!item.ticket.valid()) {
                out.write_line(item.render());
                continue;
            }
            out.write_line(
                render_scan_line(service.await(item.ticket), deterministic));
            std::lock_guard<std::mutex> lock(pending_mutex);
            const auto it = pending.find(item.fingerprint);
            if (it != pending.end() && it->second.request == item.request)
                pending.erase(it);
        }
    });

    // Last still-relevant scan per supersede slot: a new request in the
    // slot cancels its predecessor if that one has not started yet.
    std::map<std::string, AnalysisService::Ticket> slots;

    int served = 0;
    std::string line;
    bool quit = false;
    while (!quit) {
        const LineStatus status =
            read_ndjson_line(in, line, options_.max_line_bytes);
        if (status == LineStatus::kEof) break;
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        ++served;
        if (status == LineStatus::kOversized) {
            const std::string message =
                render_error_line("request line exceeds " +
                                  std::to_string(options_.max_line_bytes) +
                                  " bytes");
            queue.push({{}, [message] { return message; }});
            continue;
        }

        NdjsonRequest request = parse_ndjson_request(line);
        switch (request.op) {
        case NdjsonRequest::Op::kQuit:
            queue.push({{}, [] { return render_bye_line(); }});
            quit = true;
            break;
        case NdjsonRequest::Op::kStats: {
            auto rendered = std::make_shared<std::promise<void>>();
            std::future<void> barrier = rendered->get_future();
            queue.push({{}, [&service, deterministic, rendered] {
                            std::string reply = render_stats_line(
                                service.cache_stats(), deterministic);
                            rendered->set_value();
                            return reply;
                        }});
            barrier.wait();
            break;
        }
        case NdjsonRequest::Op::kClear: {
            auto rendered = std::make_shared<std::promise<void>>();
            std::future<void> barrier = rendered->get_future();
            queue.push({{}, [&service, rendered] {
                            service.clear_cache();
                            rendered->set_value();
                            return render_ok_line();
                        }});
            barrier.wait();
            break;
        }
        case NdjsonRequest::Op::kInvalid: {
            const std::string message = render_error_line(request.error);
            queue.push({{}, [message] { return message; }});
            break;
        }
        // Watch ops are barriers like stats/clear: their renderer runs the
        // scan and mutates the session state on the writer thread, after
        // every earlier response and before any later request is admitted —
        // exactly the serial order, so watch transcripts are byte-identical
        // to a one-request-at-a-time replay.
        case NdjsonRequest::Op::kWatch: {
            auto rendered = std::make_shared<std::promise<void>>();
            std::future<void> barrier = rendered->get_future();
            queue.push({{}, [&watch, deterministic, rendered,
                             scan = std::move(request.scan)]() mutable {
                            // Sequence open() before file_count().
                            const ScanResponse response =
                                watch.open(std::move(scan));
                            std::string reply = render_watch_line(
                                response, watch.file_count(), deterministic);
                            rendered->set_value();
                            return reply;
                        }});
            barrier.wait();
            break;
        }
        case NdjsonRequest::Op::kEdit: {
            auto rendered = std::make_shared<std::promise<void>>();
            std::future<void> barrier = rendered->get_future();
            queue.push({{}, [&watch, deterministic, rendered,
                             edit = std::move(request.edit)] {
                            std::string reply = render_edit_line(
                                watch.edit(edit), deterministic);
                            rendered->set_value();
                            return reply;
                        }});
            barrier.wait();
            break;
        }
        case NdjsonRequest::Op::kGraph: {
            auto rendered = std::make_shared<std::promise<void>>();
            std::future<void> barrier = rendered->get_future();
            queue.push(
                {{}, [&watch, &service, rendered,
                      has_payload = request.graph_has_payload,
                      detail = request.graph_detail,
                      scan = std::move(request.scan)] {
                     std::string reply;
                     if (has_payload)
                         reply = render_graph_line(
                             build_request_graph(service, scan), detail);
                     else if (watch.active())
                         reply = render_graph_line(
                             build_request_graph(service, watch.request()),
                             detail);
                     else
                         reply = render_error_line(
                             "graph needs an open watch session or a "
                             "\"path\"/\"files\" payload");
                     rendered->set_value();
                     return reply;
                 }});
            barrier.wait();
            break;
        }
        case NdjsonRequest::Op::kValidate: {
            auto rendered = std::make_shared<std::promise<void>>();
            std::future<void> barrier = rendered->get_future();
            queue.push(
                {{}, [&watch, &service, deterministic, rendered,
                      has_payload = request.validate_has_payload,
                      scan = std::move(request.scan)] {
                     std::string reply;
                     if (has_payload)
                         reply = render_validate_line(service.validate(scan),
                                                      deterministic);
                     else if (watch.active())
                         reply = render_validate_line(
                             service.validate(watch.request()),
                             deterministic);
                     else
                         reply = render_error_line(
                             "validate needs an open watch session or a "
                             "\"path\"/\"files\" payload");
                     rendered->set_value();
                     return reply;
                 }});
            barrier.wait();
            break;
        }
        case NdjsonRequest::Op::kScan: {
            request.scan.priority += base_priority;
            const uint64_t fingerprint =
                AnalysisService::request_fingerprint(request.scan);
            AnalysisService::Ticket earlier;
            {
                std::lock_guard<std::mutex> lock(pending_mutex);
                const auto it = pending.find(fingerprint);
                if (it != pending.end()) earlier = it->second.ticket;
            }
            if (earlier.valid()) service.await(earlier);
            AnalysisService::Ticket ticket =
                service.submit(std::move(request.scan));
            if (!request.slot.empty()) {
                const auto previous = slots.find(request.slot);
                if (previous != slots.end())
                    service.cancel(previous->second);
                slots[request.slot] = ticket;
            }
            {
                std::lock_guard<std::mutex> lock(pending_mutex);
                pending[fingerprint] = {served, ticket};
            }
            queue.push({std::move(ticket), {}, fingerprint, served});
            break;
        }
        }
    }

    queue.close();
    writer.join();
    return served;
}

int AnalysisServer::serve_session(std::istream& in, std::ostream& out,
                                  int base_priority) {
    SyncLineWriter writer(out);
    return serve_session(in, writer, base_priority);
}

}  // namespace phpsafe::service
