// nanosim perfbench — in-memory span recorder and Perfetto export.
//
// Spans are recorded only by the benchmark's own files, around calls into
// the simulator's public API.  Each span carries its parent (the span open
// on the same thread when it started) and an optional request id, so the
// spans of one service job share an identifier.  Records stay in memory
// and are written once, when the run ends.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Record {
    const char* layer;
    const char* name;
    std::int64_t ts_ns;
    std::int64_t dur_ns;
    std::uint32_t tid;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_mutex; // guards g_records
std::vector<Record> g_records;

thread_local std::vector<std::uint64_t> t_open;
thread_local std::uint32_t t_tid = 0;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                g_epoch)
        .count();
}

std::uint32_t thread_id() {
    if (t_tid == 0) {
        t_tid = g_next_tid.fetch_add(1);
    }
    return t_tid;
}

} // namespace

bool tracing() noexcept { return g_on.load(std::memory_order_relaxed); }
void set_tracing(bool on) noexcept {
    g_on.store(on, std::memory_order_relaxed);
}

Span::Span(const char* layer, const char* name, std::uint64_t request)
    : layer_(layer), name_(name), request_(request) {
    if (!tracing()) {
        return;
    }
    id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_open.empty() ? 0 : t_open.back();
    t_open.push_back(id_);
    t0_ns_ = now_ns();
}

Span::~Span() {
    if (t0_ns_ < 0) {
        return;
    }
    const std::int64_t t1 = now_ns();
    t_open.pop_back();
    const Record r{layer_, name_, t0_ns_, t1 - t0_ns_, thread_id(),
                   id_,    parent_, request_};
    const std::lock_guard<std::mutex> lock(g_mutex);
    g_records.push_back(r);
}

std::vector<double> span_durations(const char* layer, const char* name) {
    std::vector<double> out;
    const std::lock_guard<std::mutex> lock(g_mutex);
    for (const Record& r : g_records) {
        if (std::strcmp(r.layer, layer) == 0 && std::strcmp(r.name, name) == 0) {
            out.push_back(1e-9 * static_cast<double>(r.dur_ns));
        }
    }
    return out;
}

void export_trace(const std::string& path) {
    std::vector<Record> recs;
    {
        const std::lock_guard<std::mutex> lock(g_mutex);
        recs = g_records;
    }
    // Self time: a span's duration minus the part its children cover
    // (children always run on the parent's thread, inside its interval).
    std::map<std::uint64_t, std::int64_t> child_ns;
    for (const Record& r : recs) {
        if (r.parent != 0) {
            child_ns[r.parent] += r.dur_ns;
        }
    }
    struct Row {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };
    std::map<std::string, Row> rows;
    for (const Record& r : recs) {
        Row& row = rows[std::string(r.layer) + "  " + r.name];
        ++row.count;
        row.total_ns += r.dur_ns;
        const auto it = child_ns.find(r.id);
        row.self_ns += r.dur_ns - (it == child_ns.end() ? 0 : it->second);
    }
    std::printf("\n%-44s %8s %12s %12s\n", "span (layer  name)", "count",
                "total_s", "self_s");
    for (const auto& [key, row] : rows) {
        std::printf("%-44s %8llu %12.6f %12.6f\n", key.c_str(),
                    static_cast<unsigned long long>(row.count),
                    1e-9 * static_cast<double>(row.total_ns),
                    1e-9 * static_cast<double>(row.self_ns));
    }

    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("perfbench: cannot write trace " + path);
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char buf[512];
    for (const Record& r : recs) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,"
                      "\"request\":%llu}}",
                      first ? "" : ",\n", r.name, r.layer,
                      1e-3 * static_cast<double>(r.ts_ns),
                      1e-3 * static_cast<double>(r.dur_ns), r.tid,
                      static_cast<unsigned long long>(r.id),
                      static_cast<unsigned long long>(r.parent),
                      static_cast<unsigned long long>(r.request));
        out << buf;
        first = false;
    }
    out << "]}\n";
    if (!out) {
        throw std::runtime_error("perfbench: failed writing trace " + path);
    }
    std::printf("trace: %zu spans written to %s (open in ui.perfetto.dev)\n",
                recs.size(), path.c_str());
}

} // namespace perfbench
