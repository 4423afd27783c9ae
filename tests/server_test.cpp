// The multi-client server stack: sharded AnalysisCache (distribution,
// aggregated stats, pressure shedding order), AnalysisService scheduling
// (priorities, cancellation, admission control), NDJSON framing edge cases
// (oversized lines, truncated final line), pipelined sessions
// (request-order responses, supersede slots, atomic interleaving on a
// shared sink), and the multi-client golden transcripts.
//
// Regenerate the multi-client goldens after an intentional protocol change
// (one command; wrapped here for line length):
//   ./build/tools/phpsafe_serve --deterministic --workers 2
//     --session tests/golden/ndjson_multi_a.in:tests/golden/ndjson_multi_a.out
//     --session tests/golden/ndjson_multi_b.in:tests/golden/ndjson_multi_b.out
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/analyzers.h"
#include "core/summaries.h"
#include "corpus/generator.h"
#include "report/export.h"
#include "service/cache.h"
#include "service/ndjson.h"
#include "service/server.h"
#include "service/service.h"
#include "service/watch.h"
#include "util/json_reader.h"
#include "util/strings.h"

namespace phpsafe {
namespace {

using service::AnalysisCache;
using service::AnalysisServer;
using service::AnalysisService;
using service::CacheBudgets;
using service::CacheStats;
using service::LineStatus;
using service::ScanRequest;
using service::ScanResponse;
using service::ServerOptions;
using service::ServiceOptions;
using service::SyncLineWriter;

ScanRequest one_file(std::string plugin, std::string name, std::string text) {
    ScanRequest request;
    request.plugin = std::move(plugin);
    request.files.push_back({std::move(name), std::move(text)});
    return request;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Polls until `predicate` holds (multi-threaded tests need a settle
/// window); fails the calling test on timeout.
template <typename Predicate>
void wait_for(Predicate predicate, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!predicate()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "timeout waiting for " << what;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// ---------------------------------------------------------------- sharding

TEST(ShardedCacheTest, DistributesEntriesAndAggregatesStats) {
    AnalysisCache cache;  // default budgets: 8 shards per pool
    EXPECT_EQ(cache.result_shards(), 8);

    AnalysisResult payload;
    payload.plugin = "shard";
    constexpr uint64_t kEntries = 64;
    for (uint64_t key = 0; key < kEntries; ++key)
        cache.insert_result("preset", key, payload);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.result_entries, kEntries);
    uint64_t shard_entries = 0, shard_bytes = 0;
    int occupied = 0;
    for (const auto& shard : stats.shards) {
        shard_entries += shard.entries;
        shard_bytes += shard.bytes;
        occupied += shard.entries > 0 ? 1 : 0;
    }
    // The lock-free per-shard gauges must reconcile with the pool totals,
    // and fnv1a spreading 64 keys over 8 shards must not degenerate into
    // one hot shard.
    EXPECT_EQ(shard_entries, kEntries);
    EXPECT_EQ(shard_bytes, stats.bytes_resident);
    EXPECT_GT(occupied, 1);
}

TEST(ShardedCacheTest, TinyBudgetCollapsesToOneShard) {
    CacheBudgets budgets;
    budgets.file_bytes = 2048;  // 8 shards would get 256 useless bytes each
    budgets.summary_bytes = 128ull << 10;  // room for exactly two 64K shards
    AnalysisCache cache(budgets);
    EXPECT_EQ(cache.file_shards(), 1);
    EXPECT_EQ(cache.summary_shards(), 2);
    EXPECT_EQ(cache.result_shards(), 8);
}

TEST(ShardedCacheTest, ReinsertedSummaryReplacesPayloadAndBytes) {
    // A summary key (preset, function, declaring-file hash) does not cover
    // the artifact's dependencies, so a re-insert is a recomputation that
    // must supersede the stale payload, charged once at its new size.
    AnalysisCache cache;
    SummaryArtifact stale;
    stale.deps.push_back({SummaryDep::Kind::kFile, "util.php", "util.php", 1});
    cache.insert_summary("preset", "wrap", 7, stale);
    SummaryArtifact fresh = stale;
    fresh.deps.front().hash = 2;
    fresh.deps.push_back(
        {SummaryDep::Kind::kFunction, "inner", "a-much-longer-file-name.php"});
    const uint64_t fresh_bytes = service::approx_bytes(fresh);
    ASSERT_NE(fresh_bytes, service::approx_bytes(stale));
    cache.insert_summary("preset", "wrap", 7, fresh);

    const auto found = cache.find_summary("preset", "wrap", 7);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(found->deps.size(), 2u);
    EXPECT_EQ(found->deps.front().hash, 2u);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.summary_entries, 1u);
    EXPECT_EQ(stats.bytes_resident, fresh_bytes);
}

TEST(ShardedCacheTest, ShedDropsResultsBeforeParsedFiles) {
    AnalysisService service;
    (void)service.scan(one_file("p1", "a.php", "<?php echo $_GET['a'];"));
    (void)service.scan(one_file("p2", "b.php", "<?php echo $_GET['b'];"));
    const CacheStats before = service.cache_stats();
    ASSERT_EQ(before.result_entries, 2u);
    ASSERT_GT(before.file_entries, 0u);

    // A small target must be satisfied entirely from the result pool: the
    // warm file/summary pools are what keep the queue draining fast.
    const uint64_t freed = service.cache().shed(1);
    EXPECT_GT(freed, 0u);
    const CacheStats after = service.cache_stats();
    EXPECT_LT(after.result_entries, before.result_entries);
    EXPECT_EQ(after.file_entries, before.file_entries);
    EXPECT_EQ(after.summary_entries, before.summary_entries);
    EXPECT_GT(after.shed_entries, 0u);

    // An unbounded target drains every pool, files last but gone too.
    (void)service.cache().shed(~0ull);
    const CacheStats empty = service.cache_stats();
    EXPECT_EQ(empty.result_entries, 0u);
    EXPECT_EQ(empty.file_entries, 0u);
    EXPECT_EQ(empty.summary_entries, 0u);
    EXPECT_EQ(empty.bytes_resident, 0u);
}

// -------------------------------------------------------------- scheduling

TEST(ServerSchedulingTest, HigherPriorityDispatchesFirst) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    service.pause();

    ScanRequest low_a = one_file("low-a", "a.php", "<?php echo $_GET['a'];");
    ScanRequest low_b = one_file("low-b", "b.php", "<?php echo $_GET['b'];");
    ScanRequest high = one_file("high", "c.php", "<?php echo $_GET['c'];");
    high.priority = 5;

    const auto ticket_a = service.submit(low_a);
    const auto ticket_b = service.submit(low_b);
    const auto ticket_h = service.submit(high);
    service.resume();

    const ScanResponse ra = service.await(ticket_a);
    const ScanResponse rb = service.await(ticket_b);
    const ScanResponse rh = service.await(ticket_h);
    ASSERT_GT(ra.dispatch_seq, 0u);
    ASSERT_GT(rb.dispatch_seq, 0u);
    ASSERT_GT(rh.dispatch_seq, 0u);
    // The high-priority submission queued last but dispatched first; the
    // equal-priority pair kept submission order.
    EXPECT_LT(rh.dispatch_seq, ra.dispatch_seq);
    EXPECT_LT(ra.dispatch_seq, rb.dispatch_seq);
}

TEST(ServerSchedulingTest, CancelQueuedScanAndResubmit) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    service.pause();

    const ScanRequest request =
        one_file("cancelme", "a.php", "<?php echo $_GET['x'];");
    const auto first = service.submit(request);
    EXPECT_TRUE(service.cancel(first));
    // The fingerprint was released: an identical submit runs fresh instead
    // of coalescing onto the corpse.
    const auto second = service.submit(request);
    service.resume();

    const ScanResponse cancelled = service.await(first);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(cancelled.dispatch_seq, 0u);
    EXPECT_TRUE(cancelled.result.findings.empty());

    const ScanResponse fresh = service.await(second);
    EXPECT_FALSE(fresh.cancelled);
    EXPECT_FALSE(fresh.deduplicated);
    ASSERT_EQ(fresh.result.findings.size(), 1u);

    // A finished scan can no longer be cancelled.
    EXPECT_FALSE(service.cancel(second));
}

TEST(ServerSchedulingTest, CancellingCoalescedTicketAffectsAllAwaiters) {
    ServiceOptions options;
    options.workers = 1;
    AnalysisService service(options);
    service.pause();

    const ScanRequest request =
        one_file("shared", "a.php", "<?php echo $_GET['x'];");
    const auto first = service.submit(request);
    const auto coalesced = service.submit(request);
    EXPECT_TRUE(service.cancel(coalesced));
    service.resume();

    EXPECT_TRUE(service.await(first).cancelled);
    EXPECT_TRUE(service.await(coalesced).cancelled);
}

TEST(ServerSchedulingTest, AdmissionControlRejectsWhenQueueIsFull) {
    ServiceOptions options;
    options.workers = 1;
    options.max_queue_depth = 1;
    AnalysisService service(options);
    service.pause();

    const auto accepted =
        service.submit(one_file("ok", "a.php", "<?php echo $_GET['a'];"));
    const auto rejected =
        service.submit(one_file("no", "b.php", "<?php echo $_GET['b'];"));

    const ScanResponse bounced = service.await(rejected);
    EXPECT_TRUE(bounced.rejected);
    EXPECT_EQ(bounced.dispatch_seq, 0u);
    ASSERT_EQ(bounced.result.diagnostics.size(), 1u);

    service.resume();
    const ScanResponse served = service.await(accepted);
    EXPECT_FALSE(served.rejected);
    ASSERT_EQ(served.result.findings.size(), 1u);
}

TEST(ServerSchedulingTest, QueuePressureShedsCacheBytes) {
    ServiceOptions options;
    options.workers = 1;
    options.max_queue_depth = 16;
    options.pressure_queue_depth = 2;
    AnalysisService service(options);

    // Populate the result pool, then build a backlog past the watermark.
    (void)service.scan(one_file("warm", "a.php", "<?php echo $_GET['a'];"));
    ASSERT_GT(service.cache_stats().bytes_resident, 0u);

    service.pause();
    std::vector<AnalysisService::Ticket> tickets;
    for (int i = 0; i < 4; ++i)
        tickets.push_back(service.submit(one_file(
            "backlog-" + std::to_string(i), "b.php",
            "<?php echo $_GET['b" + std::to_string(i) + "'];")));
    EXPECT_GT(service.cache_stats().shed_entries, 0u);

    service.resume();
    for (const auto& ticket : tickets) (void)service.await(ticket);
}

// ---------------------------------------------------------- NDJSON framing

TEST(NdjsonFramingTest, ReadLineCapsBufferingAndRecovers) {
    std::istringstream in("abcdefgh\nok\nlast");
    std::string line;
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kOversized);
    EXPECT_EQ(line, "abcd");  // first cap bytes kept, remainder discarded
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kOk);
    EXPECT_EQ(line, "ok");
    // A truncated final line (no trailing newline) is still delivered.
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kOk);
    EXPECT_EQ(line, "last");
    EXPECT_EQ(service::read_ndjson_line(in, line, 4), LineStatus::kEof);
}

TEST(NdjsonFramingTest, OversizedRequestLineAnswersErrorAndContinues) {
    ServerOptions options;
    options.deterministic = true;
    options.max_line_bytes = 64;
    AnalysisServer server(options);
    std::istringstream in("{\"op\":\"scan\",\"plugin\":\"big\",\"files\":[{"
                          "\"name\":\"a.php\",\"text\":\"" +
                          std::string(200, 'x') +
                          "\"}]}\n"
                          "{\"op\":\"stats\"}\n"
                          "{\"op\":\"quit\"}\n");
    std::ostringstream out;
    EXPECT_EQ(server.serve_session(in, out), 3);

    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
    EXPECT_NE(line.find("exceeds 64 bytes"), std::string::npos);
    // The session survives: the next requests are answered normally.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"file_entries\":0"), std::string::npos);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"bye\":true"), std::string::npos);
}

TEST(NdjsonFramingTest, TruncatedFinalLineWithoutNewlineIsServed) {
    ServerOptions options;
    options.deterministic = true;
    AnalysisServer server(options);
    std::istringstream in("{\"op\":\"stats\"}");  // EOF, no '\n'
    std::ostringstream out;
    EXPECT_EQ(server.serve_session(in, out), 1);
    EXPECT_NE(out.str().find("\"summary_entries\":0"), std::string::npos);
}

// ------------------------------------------------------- pipelined sessions

/// The request lines of an NDJSON script, each decoded.
std::vector<service::NdjsonRequest> parse_script(const std::string& script) {
    std::vector<service::NdjsonRequest> requests;
    std::istringstream lines(script);
    std::string line;
    while (std::getline(lines, line))
        requests.push_back(service::parse_ndjson_request(line));
    return requests;
}

TEST(ServerSessionTest, PipelinedSessionMatchesSerialLoopByteForByte) {
    const std::string script =
        "{\"op\":\"scan\",\"plugin\":\"p1\",\"files\":[{\"name\":\"a.php\","
        "\"text\":\"<?php echo $_GET['a'];\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"p2\",\"files\":[{\"name\":\"b.php\","
        "\"text\":\"<?php echo $_GET['b'];\"}]}\n"
        "{\"op\":\"stats\"}\n"
        "{\"op\":\"validate\",\"plugin\":\"p1\",\"files\":[{\"name\":\"a.php\","
        "\"text\":\"<?php echo $_GET['a'];\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"p3\",\"files\":[{\"name\":\"c.php\","
        "\"text\":\"<?php $v = $_POST['c']; echo $v;\"}]}\n"
        "{\"op\":\"quit\"}\n";

    // The serial reference: one request at a time against a plain service,
    // rendered with the protocol's own line renderers.
    const std::vector<service::NdjsonRequest> requests = parse_script(script);
    ASSERT_EQ(requests.size(), 6u);
    std::string serial_out;
    {
        ServiceOptions options;
        options.workers = 1;
        AnalysisService serial(options);
        for (const int i : {0, 1})
            serial_out +=
                service::render_scan_line(serial.scan(requests[i].scan), true) +
                "\n";
        serial_out += service::render_stats_line(serial.cache_stats(), true) +
                      "\n";
        serial_out += service::render_validate_line(
                          serial.validate(requests[3].scan), true) +
                      "\n";
        serial_out +=
            service::render_scan_line(serial.scan(requests[4].scan), true) +
            "\n";
        serial_out += service::render_bye_line() + "\n";
    }

    std::ostringstream session_out;
    {
        ServerOptions options;
        options.service.workers = 1;
        options.deterministic = true;
        AnalysisServer server(options);
        std::istringstream in(script);
        EXPECT_EQ(server.serve_session(in, session_out), 6);
    }
    EXPECT_EQ(session_out.str(), serial_out);
}

TEST(ServerSessionTest, RepeatedScanIsAResultCacheHitOnEveryReplay) {
    // ndjson_session.in scans the same plugin twice in a row. Serial replay
    // answers the second scan from the result cache; a pipelined session
    // must too, instead of coalescing it onto the first scan while that
    // one is still in flight. Fresh server per replay, 4 workers, so the
    // two scans really can overlap.
    const std::string dir = PHPSAFE_GOLDEN_DIR;
    const std::string script = read_file(dir + "/ndjson_session.in");
    const std::string golden = read_file(dir + "/ndjson_session.out");
    for (int replay = 0; replay < 30; ++replay) {
        ServerOptions options;
        options.deterministic = true;
        options.service.workers = 4;
        AnalysisServer server(options);
        std::istringstream in(script);
        std::ostringstream out;
        server.serve_session(in, out);
        ASSERT_EQ(out.str(), golden) << "replay " << replay;
    }
}

TEST(ServerSessionTest, SlotSupersedesStillQueuedScan) {
    ServiceOptions service_options;
    service_options.workers = 1;
    AnalysisService service(service_options);
    service.pause();  // hold the queue so the second request catches the first

    ServerOptions options;
    options.deterministic = true;
    AnalysisServer server(service, options);

    std::istringstream in(
        "{\"op\":\"scan\",\"plugin\":\"editor\",\"slot\":\"buf\","
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php echo "
        "$_GET['old'];\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"editor\",\"slot\":\"buf\","
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php echo "
        "$_GET['new'];\"}]}\n"
        "{\"op\":\"quit\"}\n");
    std::ostringstream out;
    std::thread session([&] { server.serve_session(in, out); });
    wait_for([&] { return service.queue_depth() >= 2; }, "both scans queued");
    service.resume();
    session.join();

    std::istringstream lines(out.str());
    std::string line;
    // The superseded scan is still answered, in order, as cancelled.
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"cancelled\":true"), std::string::npos);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("$_GET['new']"), std::string::npos)
        << "latest slot revision must be analyzed: " << line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"bye\":true"), std::string::npos);
}

TEST(ServerSessionTest, TwoSessionsInterleaveWholeLinesOnSharedSink) {
    ServerOptions options;
    options.deterministic = true;
    options.service.workers = 2;
    AnalysisServer server(options);

    const auto script = [](const std::string& tag) {
        std::string s;
        for (int i = 0; i < 4; ++i)
            s += "{\"op\":\"scan\",\"plugin\":\"" + tag + std::to_string(i) +
                 "\",\"files\":[{\"name\":\"f.php\",\"text\":\"<?php echo "
                 "$_GET['" +
                 tag + std::to_string(i) + "'];\"}]}\n";
        return s + "{\"op\":\"quit\"}\n";
    };

    std::ostringstream shared;
    SyncLineWriter sink(shared);
    std::istringstream in_a(script("a")), in_b(script("b"));
    std::thread ta([&] { server.serve_session(in_a, sink); });
    std::thread tb([&] { server.serve_session(in_b, sink); });
    ta.join();
    tb.join();

    // 10 whole lines, every one of them standalone valid JSON: concurrent
    // sessions may interleave lines but never bytes.
    std::istringstream lines(shared.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        ++count;
        JsonValue value;
        std::string error;
        EXPECT_TRUE(JsonReader::parse(line, value, &error))
            << "torn line: " << line << " (" << error << ")";
        EXPECT_TRUE(value.is_object());
    }
    EXPECT_EQ(count, 10);
}

/// Runs each client's schedule on its own thread against one shared
/// 4-worker service and requires every report to equal the one a serial
/// single-worker service gives for the same request — the standing
/// byte-identity invariant under real overlap.
void expect_clients_match_serial_reference(
    const std::vector<std::vector<ScanRequest>>& schedules) {
    std::map<uint64_t, std::string> reference;
    {
        ServiceOptions options;
        options.workers = 1;
        AnalysisService serial(options);
        for (const std::vector<ScanRequest>& schedule : schedules)
            for (const ScanRequest& request : schedule)
                reference.emplace(
                    AnalysisService::request_fingerprint(request),
                    render_json_report(serial.scan(request).result));
    }

    ServiceOptions options;
    options.workers = 4;
    options.max_queue_depth = 4096;  // admission control on, never reached
    AnalysisService shared(options);
    std::vector<std::thread> clients;
    std::vector<int> mismatches(schedules.size(), 0);
    for (size_t c = 0; c < schedules.size(); ++c) {
        clients.emplace_back([&, c] {
            for (const ScanRequest& request : schedules[c]) {
                const auto expect = reference.find(
                    AnalysisService::request_fingerprint(request));
                if (expect == reference.end() ||
                    expect->second !=
                        render_json_report(shared.scan(request).result))
                    ++mismatches[c];
            }
        });
    }
    for (std::thread& t : clients) t.join();
    for (size_t c = 0; c < schedules.size(); ++c)
        EXPECT_EQ(mismatches[c], 0) << "client " << c;
}

TEST(ServerSessionTest, ConcurrentClientsMatchSerialReferenceReports) {
    // Four pipelined clients over eight one-file plugins, each client
    // starting at a different offset.
    std::vector<ScanRequest> requests;
    for (int i = 0; i < 8; ++i)
        requests.push_back(one_file(
            "plug" + std::to_string(i), "f.php",
            "<?php $v = $_GET['k" + std::to_string(i) + "']; echo $v;"));
    std::vector<std::vector<ScanRequest>> schedules(4);
    for (size_t t = 0; t < schedules.size(); ++t)
        for (size_t i = 0; i < requests.size(); ++i)
            schedules[t].push_back(requests[(i + t * 3) % requests.size()]);
    expect_clients_match_serial_reference(schedules);

    // Four clients over the corpus at scale 0.5, nine requests each: client
    // c starts at plugin 7c, and its requests cycle through a cold scan of
    // the plugin's 2014 files, an identical re-scan, and a one-file edit
    // (a comment revision), so cold analysis, result-pool hits and seeded
    // re-analysis all overlap.
    corpus::CorpusOptions corpus_options;
    corpus_options.scale = 0.5;
    const corpus::Corpus corpus = corpus::generate_corpus(corpus_options);
    const size_t plugins = corpus.plugins.size();
    std::vector<std::vector<ScanRequest>> corpus_schedules(4);
    for (size_t c = 0; c < corpus_schedules.size(); ++c) {
        for (size_t i = 0; i < 9; ++i) {
            const corpus::GeneratedPlugin& plugin =
                corpus.plugins[(c * 7 + i) % plugins];
            ScanRequest request;
            request.plugin = plugin.name;
            for (const auto& [name, text] : plugin.v2014.files)
                request.files.push_back({name, text});
            if (i % 3 == 2 && !request.files.empty())
                request.files[0].text +=
                    "\n// edit revision " + std::to_string(i / 3) + "\n";
            corpus_schedules[c].push_back(std::move(request));
        }
    }
    expect_clients_match_serial_reference(corpus_schedules);
}

// ----------------------------------------------------------- watch mode

std::vector<std::string> finding_keys(const std::vector<Finding>& findings) {
    std::vector<std::string> keys;
    for (const Finding& f : findings) keys.push_back(finding_json(f));
    return keys;
}

/// The delta oracle: diff two full reports by canonical serialization,
/// honoring multiplicity, added in new order / removed in old order —
/// exactly what a client diffing two cold re-scans would compute.
void cold_diff(const std::vector<Finding>& before,
               const std::vector<Finding>& after,
               std::vector<std::string>& added,
               std::vector<std::string>& removed) {
    std::multiset<std::string> old_keys, new_keys;
    for (const Finding& f : before) old_keys.insert(finding_json(f));
    for (const Finding& f : after) new_keys.insert(finding_json(f));
    for (const Finding& f : after) {
        const auto it = old_keys.find(finding_json(f));
        if (it != old_keys.end())
            old_keys.erase(it);
        else
            added.push_back(finding_json(f));
    }
    for (const Finding& f : before) {
        const auto it = new_keys.find(finding_json(f));
        if (it != new_keys.end())
            new_keys.erase(it);
        else
            removed.push_back(finding_json(f));
    }
}

/// Watch-mode byte-identity: the delta an edit answers must equal the diff
/// of two *cold* scans on fresh services — at any worker count, with a
/// mixed upsert + remove batch.
using FileSet = std::vector<std::pair<std::string, std::string>>;

ScanRequest request_of(const std::string& plugin, const FileSet& files) {
    ScanRequest request;
    request.plugin = plugin;
    for (const auto& [name, text] : files) request.files.push_back({name, text});
    return request;
}

/// The tree after `batch`: upserts replace in place or append, removals
/// drop.
FileSet tree_after(const FileSet& before, const service::WatchEditBatch& batch) {
    FileSet after;
    for (const auto& [name, text] : before) {
        if (std::find(batch.removals.begin(), batch.removals.end(), name) !=
            batch.removals.end())
            continue;
        std::string current = text;
        for (const service::SourceFileSpec& upsert : batch.upserts)
            if (upsert.name == name) current = upsert.text;
        after.emplace_back(name, std::move(current));
    }
    for (const service::SourceFileSpec& upsert : batch.upserts)
        if (std::none_of(before.begin(), before.end(),
                         [&](const auto& file) { return file.first == upsert.name; }))
            after.emplace_back(upsert.name, upsert.text);
    return after;
}

/// A scan of `files` on a fresh single-worker service.
AnalysisResult cold_scan(const std::string& plugin, const FileSet& files) {
    ServiceOptions so;
    so.workers = 1;
    AnalysisService fresh(so);
    return fresh.scan(request_of(plugin, files)).result;
}

/// The watch-mode identity gate: a session opened over `before` at
/// `workers` and sent `batch` must answer with exactly the delta a client
/// diffing two cold single-worker scans would compute, and its post-edit
/// report must equal the cold re-scan's byte for byte. Returns the delta
/// for case-specific checks.
service::WatchDelta watch_edit_against_cold(const std::string& plugin,
                                            const FileSet& before,
                                            const service::WatchEditBatch& batch,
                                            int workers) {
    const FileSet after = tree_after(before, batch);
    const AnalysisResult cold_before = cold_scan(plugin, before);
    const AnalysisResult cold_after = cold_scan(plugin, after);
    std::vector<std::string> want_added, want_removed;
    cold_diff(cold_before.findings, cold_after.findings, want_added,
              want_removed);

    ServiceOptions so;
    so.workers = workers;
    AnalysisService service(so);
    service::WatchSession watch(service);
    const ScanResponse opened = watch.open(request_of(plugin, before));
    EXPECT_FALSE(opened.rejected);
    EXPECT_EQ(render_json_report(opened.result),
              render_json_report(cold_before));

    service::WatchDelta delta = watch.edit(batch);
    EXPECT_TRUE(delta.ok) << delta.error;
    EXPECT_EQ(finding_keys(delta.added), want_added);
    EXPECT_EQ(finding_keys(delta.removed), want_removed);
    // The warm re-scan's full report equals the cold one, not just the diff.
    EXPECT_EQ(render_json_report(delta.response.result),
              render_json_report(cold_after));
    return delta;
}

void expect_delta_matches_cold_rescan(int workers) {
    // A sanitizer regression and a removed file on a three-file project.
    const FileSet before = {
        {"app.php",
         "<?php include 'lib.php'; echo wrap($_GET['q']); echo $_GET['r'];"},
        {"lib.php", "<?php function wrap($x) { return htmlentities($x); }"},
        {"other.php", "<?php echo $_COOKIE['c'];"},
    };
    service::WatchEditBatch batch;
    batch.upserts.push_back(
        {"lib.php", "<?php function wrap($x) { return $x; }"});
    batch.removals.push_back("other.php");
    const service::WatchDelta delta =
        watch_edit_against_cold("delta", before, batch, workers);
    EXPECT_EQ(delta.changed_files, 2);
    EXPECT_EQ(delta.cone_files, 1);      // lib.php, re-checked for wrap
    EXPECT_EQ(delta.cone_functions, 1);  // wrap
    EXPECT_FALSE(delta.added.empty());    // the sanitizer regression
    EXPECT_FALSE(delta.removed.empty());  // the removed file's finding

    // A vulnerability planted in one leaf include of a generated monorepo.
    corpus::MonorepoOptions options;
    options.scale = 0.25;
    const corpus::MonorepoSource source = corpus::generate_monorepo(options);
    service::WatchEditBatch plant;
    for (const auto& [name, text] : source.files)
        if (name == "plugin-001/inc/part-5.php")
            plant.upserts.push_back(
                {name, text + "\necho $_GET['watch_probe'];\n"});
    ASSERT_EQ(plant.upserts.size(), 1u);
    const service::WatchDelta planted =
        watch_edit_against_cold("monorepo", source.files, plant, workers);
    EXPECT_FALSE(planted.added.empty());
}

TEST(WatchModeTest, DeltaMatchesColdRescanDiffSerial) {
    expect_delta_matches_cold_rescan(1);
}

TEST(WatchModeTest, DeltaMatchesColdRescanDiffParallel) {
    expect_delta_matches_cold_rescan(4);
}

TEST(WatchModeTest, ConeReportsWhatTheSeedSetRechecked) {
    // Two independent libraries and an entry file that uses both.
    const std::string lib_a =
        "<?php\nfunction a_fmt($v) { return htmlentities($v); }\n"
        "function a_wrap($v) { return '<b>' . $v . '</b>'; }\n";
    const FileSet tree = {
        {"app.php",
         "<?php include 'lib_a.php'; include 'lib_b.php';\n"
         "echo a_fmt($_GET['a']); echo a_wrap($_GET['w']);\n"
         "echo b_fmt($_GET['b']);\n"},
        {"lib_a.php", lib_a},
        {"lib_b.php", "<?php\nfunction b_fmt($v) { return $v; }\n"},
    };
    AnalysisService service;
    service::WatchSession watch(service);
    ASSERT_FALSE(watch.open(request_of("cone", tree)).rejected);

    // A body save to lib_a.php: the rebase sends back lib_a.php's
    // summaries and nothing else. Recompute the probes on a copy of the
    // pre-edit set and count those with a declaration.
    service::WatchEditBatch save;
    save.upserts.push_back(
        {"lib_a.php", "<?php\nfunction a_fmt($v) { return $v; }\n"
                      "function a_wrap($v) { return '<b>' . $v . '</b>'; }\n"});
    const php::Project after =
        service.build_project(request_of("cone", tree_after(tree, save)));
    SeedSet pre_edit = watch.seeds();
    int declared_probes = 0;
    for (const SeedSet::Probe& probe : pre_edit.rebase(after))
        if (probe.owner || declaration_of(after, probe.key)) ++declared_probes;
    EXPECT_EQ(declared_probes, 2);  // a_fmt and a_wrap

    const service::WatchDelta saved = watch.edit(save);
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_FALSE(saved.response.from_result_cache);
    EXPECT_EQ(saved.cone_files, 1);  // lib_a.php
    EXPECT_EQ(saved.cone_functions, declared_probes);
    EXPECT_FALSE(saved.added.empty());  // a_fmt no longer sanitizes

    // Reverting to the opened content is a result-pool hit: no rebase ran,
    // so nothing was re-checked.
    service::WatchEditBatch revert;
    revert.upserts.push_back({"lib_a.php", lib_a});
    const service::WatchDelta reverted = watch.edit(revert);
    ASSERT_TRUE(reverted.ok) << reverted.error;
    EXPECT_TRUE(reverted.response.from_result_cache);
    EXPECT_EQ(reverted.cone_files, 0);
    EXPECT_EQ(reverted.cone_functions, 0);
    EXPECT_EQ(finding_keys(reverted.removed), finding_keys(saved.added));
}

/// The summary keys a full DepCheckMemo pass over the service's summary
/// pool would seed for `request` (what a request without a seed set looks
/// up): the first declaration of each key, looked up by its declaring
/// file's hash.
std::vector<std::string> full_pass_seed_keys(AnalysisService& service,
                                             const ScanRequest& request) {
    const php::Project project = service.build_project(request);
    Tool tool = make_phpsafe_tool();
    tool.options.hermetic_summaries = true;
    const std::string preset = tool.options.fingerprint();
    DepCheckMemo memo(project);
    std::set<std::string> seen, seeded;
    for (const php::FunctionRef& ref : project.all_functions()) {
        const std::string key = ascii_lower(ref.qualified_name());
        if (!seen.insert(key).second) continue;
        const auto artifact = service.cache().find_summary(
            preset, key, project.file_named(ref.file)->content_hash);
        if (artifact && memo.validate(*artifact)) seeded.insert(key);
    }
    return {seeded.begin(), seeded.end()};
}

TEST(WatchModeTest, SeedSetFollowsEditsAndEqualsFullPass) {
    // The scale-0.25 monorepo plus a few files whose summaries depend on an
    // unresolved include and on an inherited method.
    corpus::MonorepoOptions options;
    options.scale = 0.25;
    FileSet tree = corpus::generate_monorepo(options).files;
    tree.emplace_back("plugin-000/inc/helpers.php",
                      "<?php\nfunction helper_x($v) {\n    include 'util.php';\n"
                      "    return $v;\n}\nfunction widget_out($x) {\n"
                      "    $w = new Widget();\n    return $w->render($x);\n}\n");
    tree.emplace_back("plugin-000/inc/base.php",
                      "<?php\nclass Base {\n    function render($v) { return "
                      "htmlspecialchars($v); }\n}\n");
    tree.emplace_back("plugin-000/inc/widget.php",
                      "<?php\nclass Widget extends Base {\n}\n");
    tree.emplace_back("plugin-000/inc/view.php",
                      "<?php\necho widget_out($_GET['w']);\n"
                      "echo helper_x($_GET['h']);\n");
    std::sort(tree.begin(), tree.end());
    const auto text_of = [&](const std::string& name) {
        for (const auto& [file, text] : tree)
            if (file == name) return text;
        ADD_FAILURE() << "no file " << name;
        return std::string();
    };
    const std::string part5 = text_of("plugin-001/inc/part-5.php");
    const std::string part3 = text_of("plugin-002/inc/part-3.php");
    const std::string part2 = text_of("plugin-003/inc/part-2.php");
    const auto replaced = [](std::string text, const std::string& from,
                             const std::string& to) {
        const size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? text : text.replace(at, from.size(), to);
    };
    const auto upsert = [](const std::string& name, const std::string& text) {
        service::WatchEditBatch batch;
        batch.upserts.push_back({name, text});
        return batch;
    };
    const auto remove = [](const std::string& name) {
        service::WatchEditBatch batch;
        batch.removals.push_back(name);
        return batch;
    };
    std::vector<std::pair<std::string, service::WatchEditBatch>> edits;
    edits.emplace_back("body save",
                       upsert("plugin-001/inc/part-5.php",
                              replaced(part5, "($value);", "(trim($value));")));
    edits.emplace_back("function added",
                       upsert("plugin-002/inc/part-3.php",
                              part3 + "function p2_part3_extra($v) { return "
                                      "fw_helper_3($v); }\n"));
    edits.emplace_back("function removed (a result-pool hit)",
                       upsert("plugin-002/inc/part-3.php", part3));
    edits.emplace_back("new file shadowing a function",
                       upsert("aaa/shadow.php",
                              "<?php\nfunction fw_helper_0($value) { return "
                              "$value; }\n"));
    edits.emplace_back("new file shadowing an inherited method's class",
                       upsert("aaa/base.php",
                              "<?php\nclass Base {\n    function render($v) { "
                              "return $v; }\n}\n"));
    edits.emplace_back("file added with an include target's basename",
                       upsert("zz/util.php",
                              "<?php\nfunction util_f($v) { return $v; }\n"));
    {
        // With a body save elsewhere, so the scan misses the result pool
        // and the rejected helper_x candidate must revive.
        service::WatchEditBatch batch = remove("zz/util.php");
        batch.upserts.push_back({"plugin-004/inc/part-1.php",
                                 text_of("plugin-004/inc/part-1.php") +
                                     "// saved\n"});
        edits.emplace_back("that file removed", std::move(batch));
    }
    {
        service::WatchEditBatch batch = remove("aaa/shadow.php");
        batch.upserts.push_back(
            {"plugin-003/inc/part-2.php", part2 + "// saved\n"});
        edits.emplace_back("shadow removed with a body save", std::move(batch));
    }
    edits.emplace_back("revert to earlier content",
                       upsert("plugin-001/inc/part-5.php", part5));
    edits.emplace_back("class shadow removed", remove("aaa/base.php"));

    ServiceOptions so;
    so.workers = 2;
    AnalysisService service(so);
    service::WatchSession watch(service);
    ASSERT_FALSE(watch.open(request_of("monorepo", tree)).rejected);
    EXPECT_EQ(watch.seeds().keys(),
              full_pass_seed_keys(service, watch.request()));
    // An unresolved include keeps helper_x reusable until util.php exists.
    EXPECT_NE(watch.seeds().find("helper_x"), nullptr);
    AnalysisResult before = cold_scan("monorepo", tree);
    int result_hits = 0;
    bool added_any = false;
    for (const auto& [what, batch] : edits) {
        SCOPED_TRACE(what);
        tree = tree_after(tree, batch);
        std::sort(tree.begin(), tree.end());  // the session's file order
        const AnalysisResult after = cold_scan("monorepo", tree);
        std::vector<std::string> want_added, want_removed;
        cold_diff(before.findings, after.findings, want_added, want_removed);
        // What a full pass over the pool would seed for the edited tree.
        const size_t full_pass =
            full_pass_seed_keys(service, request_of("monorepo", tree)).size();
        const service::WatchDelta delta = watch.edit(batch);
        ASSERT_TRUE(delta.ok) << delta.error;
        EXPECT_EQ(finding_keys(delta.added), want_added);
        EXPECT_EQ(finding_keys(delta.removed), want_removed);
        EXPECT_EQ(render_json_report(delta.response.result),
                  render_json_report(after));
        added_any = added_any || !delta.added.empty();
        if (what == "file added with an include target's basename") {
            EXPECT_EQ(watch.seeds().find("helper_x"), nullptr);
        } else if (what == "that file removed") {
            EXPECT_NE(watch.seeds().find("helper_x"), nullptr);
        }
        if (delta.response.from_result_cache) {
            // The set skipped this scan; the next rebase diffs from its
            // own snapshot.
            ++result_hits;
        } else {
            EXPECT_EQ(delta.response.summaries_seeded,
                      static_cast<int>(full_pass));
            EXPECT_EQ(watch.seeds().keys(),
                      full_pass_seed_keys(service, watch.request()));
        }
        before = after;
    }
    EXPECT_EQ(result_hits, 1);
    EXPECT_TRUE(added_any);  // the class shadow drops a sanitizer
    EXPECT_EQ(service.cache_stats().evictions, 0u);
}

TEST(ServerSessionTest, PipelinedWatchSessionMatchesSerialLoopByteForByte) {
    const std::string script =
        "{\"op\":\"watch\",\"plugin\":\"w\",\"files\":[{\"name\":\"a.php\","
        "\"text\":\"<?php include 'b.php'; echo esc($_GET['x']);\"},"
        "{\"name\":\"b.php\",\"text\":\"<?php function esc($v) { return "
        "htmlentities($v); }\"}]}\n"
        "{\"op\":\"edit\",\"files\":[{\"name\":\"b.php\",\"text\":\"<?php "
        "function esc($v) { return $v; }\"}]}\n"
        "{\"op\":\"graph\"}\n"
        "{\"op\":\"edit\",\"remove\":[\"b.php\"]}\n"
        "{\"op\":\"stats\"}\n"
        "{\"op\":\"quit\"}\n";

    // The serial reference: the same watch session driven one call at a
    // time, rendered with the protocol's own line renderers.
    const std::vector<service::NdjsonRequest> requests = parse_script(script);
    ASSERT_EQ(requests.size(), 6u);
    std::string serial_out;
    {
        AnalysisService serial;
        service::WatchSession watch(serial);
        const ScanResponse opened = watch.open(requests[0].scan);
        serial_out += service::render_watch_line(opened, watch.file_count(),
                                                 true) +
                      "\n";
        serial_out +=
            service::render_edit_line(watch.edit(requests[1].edit), true) +
            "\n";
        serial_out += service::render_graph_line(
                          service::build_request_graph(serial, watch.request()),
                          false) +
                      "\n";
        serial_out +=
            service::render_edit_line(watch.edit(requests[3].edit), true) +
            "\n";
        serial_out += service::render_stats_line(serial.cache_stats(), true) +
                      "\n";
        serial_out += service::render_bye_line() + "\n";
    }

    std::ostringstream session_out;
    {
        ServerOptions options;
        options.service.workers = 4;
        options.deterministic = true;
        AnalysisServer server(options);
        std::istringstream in(script);
        EXPECT_EQ(server.serve_session(in, session_out), 6);
    }
    EXPECT_EQ(session_out.str(), serial_out);
}

TEST(NdjsonFramingTest, UnknownKeysRejectedWithUniformErrorShape) {
    // Every unknown-key rejection must be the one structured
    // {"ok":false,"error":...} shape with the same message — "backend"
    // included, which no op defines.
    const std::string script =
        "{\"op\":\"stats\",\"extra\":1}\n"
        "{\"op\":\"clear\",\"slot\":\"x\"}\n"
        "{\"op\":\"scan\",\"plugin\":\"p\",\"detail\":true,"
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php\"}]}\n"
        "{\"op\":\"scan\",\"plugin\":\"p\","
        "\"files\":[{\"name\":\"a.php\",\"text\":\"<?php\"}],"
        "\"backend\":\"ast\"}\n"
        "{\"op\":\"graph\",\"slot\":\"x\"}\n"
        "{\"op\":\"validate\",\"bogus\":1}\n"
        "{\"op\":\"quit\"}\n";
    const std::string expected =
        service::render_error_line("unknown key \"extra\" for op \"stats\"") +
        "\n" +
        service::render_error_line("unknown key \"slot\" for op \"clear\"") +
        "\n" +
        service::render_error_line("unknown key \"detail\" for op \"scan\"") +
        "\n" +
        service::render_error_line("unknown key \"backend\" for op \"scan\"") +
        "\n" +
        service::render_error_line("unknown key \"slot\" for op \"graph\"") +
        "\n" +
        service::render_error_line(
            "unknown key \"bogus\" for op \"validate\"") +
        "\n" + service::render_bye_line() + "\n";

    std::ostringstream session_out;
    {
        ServerOptions options;
        options.deterministic = true;
        AnalysisServer server(options);
        std::istringstream in(script);
        server.serve_session(in, session_out);
    }
    EXPECT_EQ(session_out.str(), expected);
}

// ------------------------------------------------------ multi-client golden

TEST(GoldenNdjsonProtocol, MultiClientTranscriptsMatch) {
    const std::string dir = PHPSAFE_GOLDEN_DIR;
    const std::string in_a = read_file(dir + "/ndjson_multi_a.in");
    const std::string in_b = read_file(dir + "/ndjson_multi_b.in");

    ServerOptions options;
    options.deterministic = true;
    options.service.workers = 2;
    AnalysisServer server(options);

    std::istringstream stream_a(in_a), stream_b(in_b);
    std::ostringstream out_a, out_b;
    std::thread ta([&] { server.serve_session(stream_a, out_a); });
    std::thread tb([&] { server.serve_session(stream_b, out_b); });
    ta.join();
    tb.join();

    // Disjoint plugin contents mean zero cross-client cache interaction, so
    // each client's transcript is deterministic despite true concurrency.
    EXPECT_EQ(out_a.str(), read_file(dir + "/ndjson_multi_a.out"));
    EXPECT_EQ(out_b.str(), read_file(dir + "/ndjson_multi_b.out"));
}

}  // namespace
}  // namespace phpsafe
