// serve-mix: independent NDJSON clients, so an open loop. One load thread
// sends requests on a fixed schedule over 4 sessions of
// AnalysisServer::serve_session, each fed through a pair of pipes — three
// scan clients and one validate client — and times every request from
// when it was due. The corpus is at scale 4, so the parsed ASTs outgrow
// the 64 MiB file pool and the cache evicts.
//
// Per block of 20 requests (--seed orders them and picks the plugins):
//   5 cold scans of a plugin version whose files all carry a fresh
//     revision comment,
//   7 identical re-scans of a recent, settled request (result-pool hits),
//   6 one-file edits of a recent request (the warm path),
//   2 validate requests on a recent request not validated yet.
// Every scan report must be byte-equal to a plain Analyzer::scan of the
// same files (phpsafe preset, hermetic summaries, as the service runs it),
// computed during set-up outside the service; every validate must tier
// exactly the findings of that plain scan. A request that errors, is
// rejected, or misses kLatencyLimitS fails.
//
// The nominal phase runs at kNominalRps for kNominalSpan × --seconds and
// gives every end-to-end metric but max_rps. max_rps then searches kLadder
// on the same server, kRungSeconds per rung (open_loop.h judge_rung).
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <deque>
#include <ext/stdio_filebuf.h>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "baselines/analyzers.h"
#include "core/analyzer.h"
#include "corpus/generator.h"
#include "obs/trace.h"
#include "open_loop.h"
#include "report/export.h"
#include "service/ndjson.h"
#include "service/server.h"
#include "trace.h"
#include "util/json_reader.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = phpsafe::service;

constexpr double kCorpusScale = 4.0;
constexpr int kSessions = 4;
/// Latency limit on the tail percentile, seconds from when a request was due.
constexpr double kLatencyLimitS = 1.0;
/// Rate of the nominal phase, requests per second, and its length in
/// units of --seconds: 300 requests at --seconds 10, so tail_ms is a p95
/// with 15 samples beyond it, all of them validates.
constexpr double kNominalRps = 20.0;
constexpr double kNominalSpan = 1.5;
/// The max_rps ladder, 20% apart, above the nominal rate. The search
/// starts at kLadder[kLadderStart]; the seed commit sustains 45–60 rps on
/// 4 cores, so host noise moves the verdict by one rung at most, and one
/// rung is less than the metric's bound.
constexpr double kLadder[] = {25.0, 30.0, 36.0, 43.0, 52.0, 62.0, 75.0, 90.0, 108.0, 130.0};
constexpr int kLadderStart = 3;
constexpr double kRungSeconds = 4.0;
/// Largest latency growth (open_loop.h latency_growth) a sustained rate
/// may show.
constexpr double kMaxGrowth = 0.1;
/// Plugin versions the cold scans cycle through (see Generator).
constexpr size_t kPopulation = 25;
/// A rung stops sending once its oldest outstanding request is this many
/// latency limits old: the backlog has already failed it.
constexpr double kAbortLimits = 2.0;
/// Server starts per run; setup_s is the median time to construct the
/// AnalysisServer (service, presets, worker team), about 0.4 ms. The
/// client sessions' pipes and threads are the load generator's.
constexpr int kSetupRepeats = 25;

enum class Kind { kCold, kHit, kEdit, kValidate };
const char* kind_name(Kind k) {
    switch (k) {
    case Kind::kCold: return "cold";
    case Kind::kHit: return "hit";
    case Kind::kEdit: return "edit";
    case Kind::kValidate: return "validate";
    }
    return "?";
}

using Line = std::shared_ptr<const std::string>;

struct Content {
    std::string plugin;
    std::shared_ptr<const FileList> files;
    uint64_t lines = 0;
    Line scan_line;  ///< shared by every scan request of this content
};

struct Request {
    Kind kind = Kind::kCold;
    size_t content = 0;
    Line line;  ///< NDJSON request, newline-terminated
};

Line request_line(const char* op, const Content& c) {
    return std::make_shared<const std::string>(files_request(op, c.plugin, *c.files) + "\n");
}

uint64_t count_lines(const FileList& files) {
    uint64_t n = 0;
    for (const auto& [name, text] : files)
        n += static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
    return n;
}

/// Makes request schedules over the corpus. Keeps its state between
/// calls, so every schedule it makes carries fresh content.
class Generator {
public:
    Generator(const phpsafe::corpus::Corpus& corpus, uint64_t seed)
        : corpus_(corpus), rng_(seed) {
        // The kPopulation plugin versions closest to the median size: the
        // request classes then cost about the same whichever versions a
        // seed draws, so the latency percentiles hold still across seeds.
        std::vector<std::pair<uint64_t, std::pair<size_t, int>>> sized;
        for (size_t p = 0; p < corpus.plugins.size(); ++p)
            for (int v = 0; v < 2; ++v) {
                uint64_t bytes = 0;
                for (const auto& f : (v ? corpus.plugins[p].v2014 : corpus.plugins[p].v2012).files)
                    bytes += f.second.size();
                sized.push_back({bytes, {p, v}});
            }
        std::sort(sized.begin(), sized.end());
        const uint64_t median = sized[sized.size() / 2].first;
        std::stable_sort(sized.begin(), sized.end(), [median](const auto& a, const auto& b) {
            auto dist = [median](uint64_t x) { return x > median ? x - median : median - x; };
            return dist(a.first) < dist(b.first);
        });
        for (size_t i = 0; i < kPopulation && i < sized.size(); ++i)
            population_.push_back(sized[i].second);
    }

    std::vector<Content> contents;

    std::vector<Request> make(size_t n) {
        std::vector<Request> out;
        while (out.size() < n) {
            std::vector<Kind> block;
            block.insert(block.end(), 5, Kind::kCold);
            block.insert(block.end(), 7, Kind::kHit);
            block.insert(block.end(), 6, Kind::kEdit);
            block.insert(block.end(), 2, Kind::kValidate);
            rng_.shuffle(block);
            for (Kind k : block) {
                if (out.size() == n) break;
                out.push_back(next(recent_.empty() ? Kind::kCold : k));
            }
        }
        return out;
    }

    /// Drops the texts of contents no later request can use (requests
    /// already made keep their lines), to bound memory.
    void release_files() {
        const std::set<size_t> keep(recent_.begin(), recent_.end());
        for (size_t i = 0; i < contents.size(); ++i)
            if (!keep.count(i)) {
                contents[i].files.reset();
                contents[i].scan_line.reset();
            }
    }

private:
    static constexpr size_t kRecent = 6;
    static constexpr size_t kUnsettled = 2;

    Request next(Kind kind) {
        Request r;
        r.kind = kind;
        switch (kind) {
        case Kind::kCold: {
            if (cycle_pos_ == cycle_.size()) refill_cycle();
            const auto [p, v] = cycle_[cycle_pos_++];
            const auto& plugin = corpus_.plugins[p];
            auto files = std::make_shared<FileList>(v ? plugin.v2014.files : plugin.v2012.files);
            const std::string rev = "\n// perfbench revision " + std::to_string(++counter_) + "\n";
            for (auto& f : *files) f.second += rev;
            r.content = add(plugin.name, std::move(files));
            break;
        }
        case Kind::kHit: {
            // Skip the newest contents, whose first scan may still be in
            // flight, so a re-scan is a result-pool hit rather than a
            // coalesced request.
            const size_t settled = recent_.size() > kUnsettled ? recent_.size() - kUnsettled : 1;
            r.content = recent_[rng_.below(settled)];
            break;
        }
        case Kind::kEdit: {
            const Content& base = contents[recent_[rng_.below(recent_.size())]];
            auto files = std::make_shared<FileList>(*base.files);
            auto& f = (*files)[rng_.below(files->size())];
            f.second += "\n// perfbench edit " + std::to_string(++counter_) + "\n";
            r.content = add(base.plugin, std::move(files));
            break;
        }
        case Kind::kValidate: {
            r.content = recent_.back();
            for (auto it = recent_.rbegin(); it != recent_.rend(); ++it)
                if (!validated_.count(*it)) {
                    r.content = *it;
                    break;
                }
            validated_.insert(r.content);
            break;
        }
        }
        Content& c = contents[r.content];
        if (kind == Kind::kValidate) {
            r.line = request_line("validate", c);
        } else {
            if (!c.scan_line)
                c.scan_line = request_line("scan", c);
            r.line = c.scan_line;
        }
        return r;
    }

    size_t add(const std::string& plugin, std::shared_ptr<FileList> files) {
        Content c;
        c.plugin = plugin;
        c.lines = count_lines(*files);
        c.files = std::move(files);
        contents.push_back(std::move(c));
        recent_.push_back(contents.size() - 1);
        if (recent_.size() > kRecent) recent_.pop_front();
        return contents.size() - 1;
    }

    void refill_cycle() {
        cycle_ = population_;
        rng_.shuffle(cycle_);
        cycle_pos_ = 0;
    }

    const phpsafe::corpus::Corpus& corpus_;
    std::vector<std::pair<size_t, int>> population_;
    Rng rng_;
    std::vector<std::pair<size_t, int>> cycle_;
    size_t cycle_pos_ = 0;
    std::deque<size_t> recent_;
    std::set<size_t> validated_;
    uint64_t counter_ = 0;
};

/// The plain-scan references of every content, computed outside the
/// service over 4 threads. Also times Project::resolve_include on every
/// include literal and keeps the model-construction CPU split.
struct References {
    std::vector<std::string> report;
    std::vector<size_t> findings;
    /// The plain-scan results themselves, kept only for a traced run's
    /// render probe.
    bool keep_results = false;
    std::vector<phpsafe::AnalysisResult> result;
    /// Model-construction and include-resolution totals of the builds.
    struct Probe {
        double lex_cpu = 0, parse_cpu = 0;
        uint64_t text_bytes = 0;
        double resolve_s = 0;
        uint64_t resolve_calls = 0;
    } probe;

    void extend(const std::vector<Content>& contents) {
        const size_t from = report.size();
        report.resize(contents.size());
        findings.resize(contents.size());
        result.resize(contents.size());
        std::atomic<size_t> next{from};
        std::vector<std::thread> threads;
        struct Local { double lex = 0, parse = 0, resolve = 0; uint64_t bytes = 0, calls = 0; };
        std::vector<Local> locals(4);
        for (int w = 0; w < 4; ++w)
            threads.emplace_back([&, w] {
                phpsafe::Tool tool = phpsafe::make_phpsafe_tool();
                tool.options.hermetic_summaries = true;
                const phpsafe::Analyzer analyzer(std::move(tool.kb), tool.options);
                Local& l = locals[static_cast<size_t>(w)];
                for (size_t i; (i = next.fetch_add(1)) < contents.size();) {
                    phpsafe::php::Project project(contents[i].plugin);
                    std::vector<std::string> literals;
                    for (const auto& [name, text] : *contents[i].files) {
                        project.add_file(name, text);
                        l.bytes += text.size();
                        for (std::string& s : include_literals(text))
                            literals.push_back(std::move(s));
                    }
                    phpsafe::DiagnosticSink sink;
                    project.parse_all(sink);
                    l.lex += project.build_stats().lex_cpu_seconds;
                    l.parse += project.build_stats().parse_cpu_seconds;
                    l.calls += time_resolve_includes(project, literals, l.resolve);
                    phpsafe::AnalysisResult plain = analyzer.scan(project).result;
                    report[i] = phpsafe::render_json_report(plain);
                    findings[i] = plain.findings.size();
                    if (keep_results) result[i] = std::move(plain);
                }
            });
        for (std::thread& t : threads) t.join();
        for (const Local& l : locals) {
            probe.lex_cpu += l.lex;
            probe.parse_cpu += l.parse;
            probe.text_bytes += l.bytes;
            probe.resolve_s += l.resolve;
            probe.resolve_calls += l.calls;
        }
    }
};

/// One client connection: a pipe each way to one server session.
struct Conn {
    int to_server = -1;    ///< our write end (non-blocking)
    int from_server = -1;  ///< our read end (non-blocking)
    std::deque<size_t> outstanding;  ///< request indices awaiting a reply
    std::deque<size_t> unsent;       ///< due, not yet fully written
    size_t written = 0;              ///< bytes of unsent.front() written
    std::string inbuf;
    bool eof = false;
};

void set_nonblocking(int fd) { fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK); }

/// The program under test: one AnalysisServer with kSessions sessions,
/// each on its own thread (the server's blocking serve_session API).
class Server {
public:
    explicit Server(phpsafe::obs::Tracer* tracer) {
        svc::ServerOptions options;
        options.service.tracer = tracer;
        const double t0 = now_s();
        server_ = std::make_unique<svc::AnalysisServer>(options);
        start_s = now_s() - t0;
        // Every pipe first, so a failure leaves no session thread running.
        std::vector<std::array<int, 4>> ends;  // req read/write, resp read/write
        for (int s = 0; s < kSessions; ++s) {
            std::array<int, 4> e{};
            if (pipe(e.data()) != 0 || pipe(e.data() + 2) != 0) {
                for (const auto& done : ends)
                    for (int fd : done) close(fd);
                throw std::runtime_error("pipe failed");
            }
            ends.push_back(e);
        }
        for (const auto& e : ends) {
            fcntl(e[1], F_SETPIPE_SZ, 1 << 20);
            fcntl(e[3], F_SETPIPE_SZ, 1 << 20);
            Conn c;
            c.to_server = e[1];
            c.from_server = e[2];
            set_nonblocking(c.to_server);
            set_nonblocking(c.from_server);
            conns.push_back(std::move(c));
            threads_.emplace_back([this, in_fd = e[0], out_fd = e[3]] {
                __gnu_cxx::stdio_filebuf<char> inbuf(in_fd, std::ios::in, 1 << 16);
                __gnu_cxx::stdio_filebuf<char> outbuf(out_fd, std::ios::out, 1 << 16);
                std::istream in(&inbuf);
                std::ostream out(&outbuf);
                server_->serve_session(in, out);
                out.flush();
            });
        }
    }
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Ends every session (EOF on its requests), drains the replies still
    /// in flight and joins the session threads.
    ~Server() {
        for (Conn& c : conns) close(c.to_server);
        std::vector<pollfd> fds;
        for (Conn& c : conns) fds.push_back({c.from_server, POLLIN, 0});
        char buf[1 << 16];
        for (size_t open = fds.size(); open > 0;) {
            poll(fds.data(), fds.size(), 100);
            for (pollfd& p : fds) {
                if (p.fd < 0 || !(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
                const ssize_t n = read(p.fd, buf, sizeof buf);
                if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
                    close(p.fd);
                    p.fd = -1;
                    --open;
                }
            }
        }
        for (std::thread& t : threads_) t.join();
    }

    std::vector<Conn> conns;
    /// Wall seconds the AnalysisServer took to construct.
    double start_s = 0;

private:
    std::unique_ptr<svc::AnalysisServer> server_;
    std::vector<std::thread> threads_;
};

struct PhaseRun {
    double wall_s = 0;
    double cpu_s = 0;
    size_t sent = 0;  ///< requests sent (all of them unless aborted)
    bool aborted = false;
    std::vector<RequestTiming> timings;
    std::vector<std::string> replies;
};

/// Sends `requests` at `rate` on the server's connections (validates on
/// the last, scans round-robin on the others) and collects every reply.
/// A validate holds its session until it is answered, so keeping them on
/// a client of their own keeps that wait off the scan clients. With
/// `abort_after_s`
/// > 0, stops sending once the oldest outstanding request is that old.
PhaseRun drive(Server& server, std::vector<Request>& requests, double rate,
               double abort_after_s, bool release_sent, ThreadTrace& tt) {
    PhaseRun run;
    const size_t n = requests.size();
    const std::vector<double> due = uniform_schedule(n, rate);
    run.timings.resize(n);
    run.replies.resize(n);
    std::vector<Conn>& conns = server.conns;
    std::vector<pollfd> fds(conns.size() * 2);
    size_t next = 0, pending = 0, scans = 0;
    char buf[1 << 16];
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    auto root = tt.open("bench.loop");
    while ((next < n && !run.aborted) || pending > 0) {
        double now = now_s() - t0;
        for (; next < n && due[next] <= now && !run.aborted; ++next) {
            // Validates come from a client of their own; the scan clients
            // take turns.
            Conn& c = requests[next].kind == Kind::kValidate
                          ? conns.back()
                          : conns[scans++ % (conns.size() - 1)];
            run.timings[next].due = due[next];
            run.timings[next].sent = now;
            c.unsent.push_back(next);
            c.outstanding.push_back(next);
            ++pending;
        }
        {
            auto span = tt.open("serve.send");
            for (Conn& c : conns)
                while (!c.unsent.empty()) {
                    Request& request = requests[c.unsent.front()];
                    const std::string& line = *request.line;
                    const ssize_t w = write(c.to_server, line.data() + c.written,
                                            line.size() - c.written);
                    if (w <= 0) break;
                    c.written += static_cast<size_t>(w);
                    if (c.written < line.size()) break;
                    c.unsent.pop_front();
                    c.written = 0;
                    if (release_sent) request.line.reset();
                }
        }
        if (abort_after_s > 0 && !run.aborted)
            for (const Conn& c : conns)
                if (!c.outstanding.empty() &&
                    now - run.timings[c.outstanding.front()].due > abort_after_s)
                    run.aborted = true;

        for (size_t i = 0; i < conns.size(); ++i) {
            fds[2 * i] = {conns[i].from_server, POLLIN, 0};
            fds[2 * i + 1] = {conns[i].unsent.empty() ? -1 : conns[i].to_server, POLLOUT, 0};
        }
        int timeout_ms = 50;
        if (next < n && !run.aborted)
            timeout_ms = std::clamp(static_cast<int>((due[next] - now) * 1e3), 0, 50);
        {
            auto span = tt.open("serve.wait");
            poll(fds.data(), fds.size(), timeout_ms);
        }
        auto span = tt.open("serve.recv");
        for (size_t i = 0; i < conns.size(); ++i) {
            if (!(fds[2 * i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            Conn& c = conns[i];
            const ssize_t got = read(c.from_server, buf, sizeof buf);
            if (got <= 0) {
                if (got == 0) c.eof = true;
                continue;
            }
            now = now_s() - t0;
            size_t start = c.inbuf.size();
            c.inbuf.append(buf, static_cast<size_t>(got));
            size_t nl;
            size_t consumed = 0;
            while ((nl = c.inbuf.find('\n', start)) != std::string::npos) {
                if (c.outstanding.empty()) break;
                const size_t id = c.outstanding.front();
                c.outstanding.pop_front();
                --pending;
                run.timings[id].done = now;
                run.replies[id] = c.inbuf.substr(consumed, nl - consumed);
                consumed = nl + 1;
                start = consumed;
            }
            c.inbuf.erase(0, consumed);
        }
        if (std::any_of(conns.begin(), conns.end(), [](const Conn& c) { return c.eof; }))
            throw std::runtime_error("a server session closed its stream");
    }
    root.close();
    run.sent = next;
    run.wall_s = now_s() - t0;
    run.cpu_s = process_cpu_s() - cpu0;
    return run;
}

/// What the checks found in one reply.
struct Reply {
    bool ok = false;
    std::string why;
    phpsafe::JsonValue head;  ///< the reply's members other than the report
};

Reply check_reply(const Request& request, const std::string& line,
                  const References& refs) {
    Reply r;
    const size_t report_at = line.find(",\"report\":");
    const std::string head = report_at == std::string::npos
                                 ? line
                                 : line.substr(0, report_at) + "}";
    if (!phpsafe::JsonReader::parse(head, r.head)) {
        r.why = "unparsable reply";
        return r;
    }
    const phpsafe::JsonValue* ok = r.head.get("ok");
    if (!ok || !ok->boolean) {
        r.why = "not ok: " + head.substr(0, 120);
        return r;
    }
    if (request.kind == Kind::kValidate) {
        const int64_t tiered = r.head.int_or("validated", 0) +
                               r.head.int_or("unvalidated", 0) +
                               r.head.int_or("inconclusive", 0);
        const size_t expected = refs.findings[request.content];
        if (tiered != static_cast<int64_t>(expected)) {
            r.why = "validate tiered " + std::to_string(tiered) + " findings, the plain scan has " +
                    std::to_string(expected);
            return r;
        }
    } else {
        const std::string report =
            report_at == std::string::npos
                ? ""
                : line.substr(report_at + 10, line.size() - report_at - 11);
        if (report != refs.report[request.content]) {
            r.why = "report differs from the plain scan";
            return r;
        }
    }
    r.ok = true;
    return r;
}

/// Replies and latencies of one phase, judged.
struct Judged {
    std::vector<bool> ok;
    std::vector<Reply> replies;
    std::vector<double> latencies;
    uint64_t failed = 0;
};

Judged judge(const std::vector<Request>& requests, const PhaseRun& run,
             const References& refs, bool latency_fails, RunResult& result,
             const char* phase) {
    Judged j;
    for (size_t i = 0; i < run.sent; ++i) {
        Reply r = check_reply(requests[i], run.replies[i], refs);
        const double latency = latency_from_due(run.timings[i]);
        if (r.ok && latency_fails && latency > kLatencyLimitS) {
            r.ok = false;
            r.why = "missed the latency limit";
        }
        if (!r.ok) {
            ++j.failed;
            result.mismatch(std::string("serve-mix ") + phase + ": request " +
                            std::to_string(i + 1) + " (" + kind_name(requests[i].kind) +
                            "): " + r.why);
        }
        j.ok.push_back(r.ok);
        j.latencies.push_back(latency);
        j.replies.push_back(std::move(r));
    }
    return j;
}

/// The server's cache statistics through the "stats" op on session 0.
phpsafe::JsonValue stats(Server& server) {
    Trace none(false, 1);
    std::vector<Request> req(1);
    req[0].line = std::make_shared<const std::string>("{\"op\":\"stats\"}\n");
    const PhaseRun run = drive(server, req, 1.0, 0, true, none.thread(0));
    phpsafe::JsonValue v;
    phpsafe::JsonReader::parse(run.replies[0], v);
    return v;
}

}  // namespace

RunResult run_serve_mix(const RunOptions& options) {
    std::signal(SIGPIPE, SIG_IGN);
    RunResult result;
    phpsafe::corpus::CorpusOptions corpus_options;
    corpus_options.scale = kCorpusScale;
    const phpsafe::corpus::Corpus corpus = phpsafe::corpus::generate_corpus(corpus_options);
    Generator gen(corpus, options.seed);
    const size_t nominal_n = std::max<size_t>(
        40, static_cast<size_t>(options.seconds * kNominalSpan * kNominalRps + 0.5));
    std::vector<Request> nominal = gen.make(nominal_n);
    References refs;
    refs.keep_results = options.trace;
    refs.extend(gen.contents);
    gen.release_files();
    // Layer probes of the nominal contents, taken before the ladder adds more.
    const References::Probe probe = refs.probe;

    // Program set-up: server start with its sessions.
    std::vector<double> setups;
    std::unique_ptr<Server> server;
    for (int r = 0; r < kSetupRepeats; ++r) {
        server.reset();
        server = std::make_unique<Server>(nullptr);
        setups.push_back(server->start_s);
    }

    Trace untraced(false, 1);
    reset_peak_rss();
    // Only a traced run replays the nominal requests; otherwise each line
    // is freed once sent.
    const PhaseRun timed =
        drive(*server, nominal, kNominalRps, 0, !options.trace, untraced.thread(0));
    const double peak_mb = peak_rss_mb();  // the ladder's references excluded
    const Judged j = judge(nominal, timed, refs, true, result, "nominal");
    uint64_t failed = j.failed;
    result.attempted = timed.sent;

    if (!options.trace) {
        const RungVerdict nominal_verdict =
            judge_rung(timed.timings, j.ok, kLatencyLimitS, kMaxGrowth);

        // The ladder, on the same warm server.
        double max_rps = nominal_verdict.pass ? kNominalRps : 0;
        auto rung_json = [](double rate, const RungVerdict& v, size_t sent) {
            return "{\"rps\":" + json_number(rate) + ",\"pass\":" +
                   (v.pass ? "true" : "false") + ",\"sent\":" + std::to_string(sent) +
                   ",\"growth\":" + json_number(v.growth) +
                   ",\"tail\":" + json_percentile(v.tail) + "}";
        };
        std::string rungs = "[" + rung_json(kNominalRps, nominal_verdict, timed.sent);
        auto try_rung = [&](double rate) {
            std::vector<Request> rung =
                gen.make(static_cast<size_t>(rate * kRungSeconds + 0.5));
            refs.extend(gen.contents);
            gen.release_files();
            const PhaseRun run = drive(*server, rung, rate, kAbortLimits * kLatencyLimitS,
                                       true, untraced.thread(0));
            const Judged rj = judge(rung, run, refs, false, result, "ladder");
            failed += rj.failed;
            result.attempted += run.sent;
            const std::vector<RequestTiming> timings(
                run.timings.begin(), run.timings.begin() + static_cast<long>(run.sent));
            RungVerdict v = judge_rung(timings, rj.ok, kLatencyLimitS, kMaxGrowth);
            v.pass = v.pass && !run.aborted;
            rungs += "," + rung_json(rate, v, run.sent);
            return v.pass;
        };
        // Climb from kLadderStart while rungs pass; if the first one fails,
        // step down until one passes.
        const int top = static_cast<int>(std::size(kLadder));
        if (max_rps > 0) {
            int i = kLadderStart;
            const bool first = try_rung(kLadder[i]);
            if (first) {
                max_rps = kLadder[i];
                while (++i < top && try_rung(kLadder[i])) max_rps = kLadder[i];
            } else {
                while (--i >= 0 && !try_rung(kLadder[i])) {
                }
                if (i >= 0) max_rps = kLadder[i];
            }
        }
        // Below the ladder (max_rps 0), the rate the nominal phase
        // completed is reported.
        uint64_t lines = 0;
        for (size_t i = 0; i < timed.sent; ++i) lines += gen.contents[nominal[i].content].lines;
        add_end_to_end(result, {static_cast<double>(timed.sent), timed.wall_s, timed.cpu_s,
                                static_cast<double>(lines) / 1e3, j.latencies, max_rps,
                                setups, peak_mb});
        result.note("latency_limit_ms", json_number(kLatencyLimitS * 1e3));
        result.note("ladder", rungs + "]");
        std::map<std::string, std::vector<double>> by_kind;
        for (size_t i = 0; i < timed.sent; ++i)
            by_kind[kind_name(nominal[i].kind)].push_back(j.latencies[i]);
        result.note("request_classes", json_class_p50s(by_kind));
    } else {
        // The traced replay: a fresh server, so the cache starts as cold as
        // in the timed phase, with the program's own service tracer on for
        // the per-scan counters.
        phpsafe::obs::Tracer service_tracer(true);
        server.reset();
        server = std::make_unique<Server>(&service_tracer);
        Trace trace(true, 2);
        const PhaseRun t = drive(*server, nominal, kNominalRps, 0, false, trace.thread(0));
        const Judged tj = judge(nominal, t, refs, true, result, "traced");
        failed += tj.failed;
        const phpsafe::JsonValue st = stats(*server);
        phpsafe::obs::Counters c;
        for (const phpsafe::obs::SpanRecord& s : service_tracer.records())
            if (s.name == "service.scan") c += s.counters;

        server.reset();
        server = std::make_unique<Server>(nullptr);
        const PhaseRun after = drive(*server, nominal, kNominalRps, 0, false, untraced.thread(0));
        failed += judge(nominal, after, refs, true, result, "after").failed;
        result.attempted += t.sent + after.sent;

        std::vector<std::pair<std::string, double>> v;
        add_blocking_path(result, trace.thread(0), t.wall_s, trace.thread(0).spans().size(), v);
        add_overhead(result, v, t.wall_s, timed.wall_s, after.wall_s);

        // Framing rates, timed from outside over this phase's lines.
        ThreadTrace& pt = trace.thread(1);
        uint64_t bytes_in = 0, bytes_out = 0, rendered = 0;
        double parse_s = 0, render_s = 0;
        for (size_t i = 0; i < t.sent; ++i) {
            bytes_in += nominal[i].line->size();
            bytes_out += t.replies[i].size() + 1;
            const double p0 = now_s();
            {
                auto span = pt.open("ndjson.parse", i + 1);
                (void)svc::parse_ndjson_request(*nominal[i].line);
            }
            parse_s += now_s() - p0;
            if (nominal[i].kind == Kind::kValidate) continue;
            svc::ScanResponse response;
            response.result = refs.result[nominal[i].content];
            const double r0 = now_s();
            {
                auto span = pt.open("ndjson.render", i + 1);
                rendered += svc::render_scan_line(response, false).size();
            }
            render_s += now_s() - r0;
        }
        uint64_t rejected = 0;
        uint64_t scans = 0, hits = 0, dedup = 0, seeded = 0, invalidated = 0, findings = 0;
        uint64_t validates = 0, cases = 0, executions = 0, proposed = 0, verified = 0;
        double scan_s = 0, queue_s = 0, validate_s = 0, late_s = 0;
        const double parse_rate = static_cast<double>(bytes_in) / parse_s;
        const double render_rate = static_cast<double>(rendered) / render_s;
        for (size_t i = 0; i < t.sent; ++i) {
            const phpsafe::JsonValue& h = tj.replies[i].head;
            late_s += generator_lateness(t.timings[i]);
            const double wall = h.get("wall_seconds") ? h.get("wall_seconds")->number : 0;
            const phpsafe::JsonValue* refused = h.get("rejected");
            rejected += refused && refused->boolean;
            if (nominal[i].kind == Kind::kValidate) {
                ++validates;
                validate_s += wall;
                cases += static_cast<uint64_t>(h.int_or("validated", 0) +
                                               h.int_or("unvalidated", 0) +
                                               h.int_or("inconclusive", 0));
                executions += static_cast<uint64_t>(h.int_or("executions", 0));
                proposed += static_cast<uint64_t>(h.int_or("fixes_proposed", 0));
                verified += static_cast<uint64_t>(h.int_or("fixes_verified", 0));
                continue;
            }
            ++scans;
            scan_s += wall;
            const double framing =
                static_cast<double>(nominal[i].line->size()) / parse_rate +
                static_cast<double>(t.replies[i].size()) / render_rate;
            queue_s += latency_from_due(t.timings[i]) - wall - framing;
            const phpsafe::JsonValue* hit = h.get("from_result_cache");
            hits += hit && hit->boolean;
            const phpsafe::JsonValue* dd = h.get("deduplicated");
            dedup += dd && dd->boolean;
            seeded += static_cast<uint64_t>(h.int_or("summaries_seeded", 0));
            invalidated += static_cast<uint64_t>(h.int_or("summaries_invalidated", 0));
            findings += refs.findings[nominal[i].content];
        }
        auto n = [](auto x) { return static_cast<double>(x); };
        v.emplace_back("php.lex_cpu_s", probe.lex_cpu);
        v.emplace_back("php.parse_cpu_s", probe.parse_cpu);
        v.emplace_back("php.lex_mb_per_s", ratio(n(probe.text_bytes) / 1e6, probe.lex_cpu));
        v.emplace_back("php.tokens", n(c.tokens_lexed));
        v.emplace_back("php.ast_nodes", n(c.ast_nodes));
        v.emplace_back("php.files_parsed", n(c.files_parsed));
        v.emplace_back("php.resolve_include_calls", n(probe.resolve_calls));
        v.emplace_back("php.resolve_include_us",
                       ratio(probe.resolve_s * 1e6, n(probe.resolve_calls)));
        v.emplace_back("core.taint_propagations", n(c.taint_propagations));
        v.emplace_back("core.summaries_computed", n(c.summaries_computed));
        v.emplace_back("core.summaries_reused", n(c.summaries_reused));
        v.emplace_back("core.sink_checks", n(c.sink_checks));
        v.emplace_back("core.findings", n(findings));
        v.emplace_back("service.scan_ms", ratio(scan_s * 1e3, n(scans)));
        v.emplace_back("service.queue_wait_ms", ratio(queue_s * 1e3, n(scans)));
        v.emplace_back("service.result_hit_ratio", ratio(n(hits), n(scans)));
        v.emplace_back("service.file_hit_ratio",
                       ratio(n(c.cache_file_hits), n(c.cache_file_hits + c.cache_file_misses)));
        v.emplace_back("service.summary_seed_ratio",
                       ratio(n(seeded), n(seeded + c.summaries_computed)));
        v.emplace_back("service.summaries_invalidated", n(invalidated));
        v.emplace_back("service.evictions", n(st.int_or("evictions", 0)));
        v.emplace_back("service.bytes_resident", n(st.int_or("bytes_resident", 0)));
        v.emplace_back("service.shard_contention", n(c.cache_shard_contention));
        v.emplace_back("service.rejected", n(rejected));
        v.emplace_back("service.deduplicated", n(dedup));
        v.emplace_back("ndjson.parse_mb_per_s", parse_rate / 1e6);
        v.emplace_back("ndjson.render_mb_per_s", render_rate / 1e6);
        v.emplace_back("ndjson.bytes_in", n(bytes_in));
        v.emplace_back("ndjson.bytes_out", n(bytes_out));
        v.emplace_back("validate.ms", ratio(validate_s * 1e3, n(validates)));
        v.emplace_back("validate.cases", n(cases));
        v.emplace_back("validate.executions", n(executions));
        v.emplace_back("validate.dedup_ratio", ratio(n(cases), n(executions)));
        v.emplace_back("validate.fix_verified_ratio", ratio(n(verified), n(proposed)));
        v.emplace_back("serve.gen_late_ms", ratio(late_s * 1e3, n(t.sent)));
        add_layer_metrics(result, v);
        if (!options.trace_path.empty() && !trace.write_json(options.trace_path))
            result.mismatch("trace: cannot write " + options.trace_path);
    }
    server.reset();
    result.failed = std::min(failed, result.attempted);
    return result;
}

}  // namespace perfbench
