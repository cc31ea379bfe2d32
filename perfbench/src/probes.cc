#include "probes.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/arena.hh"
#include "core/gpht_predictor.hh"
#include "core/phase_classifier.hh"

namespace perfbench
{

using namespace livephase;
using namespace livephase::service;

double
quantile(std::vector<float> &values, double q)
{
    if (values.empty())
        return 0.0;
    const size_t rank = std::min(
        values.size() - 1,
        static_cast<size_t>(q * static_cast<double>(values.size())));
    std::nth_element(values.begin(), values.begin() + rank,
                     values.end());
    return values[rank];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1
        ? values[mid]
        : 0.5 * (values[mid - 1] + values[mid]);
}

Bytes
TimingTransport::roundTrip(Bytes request_frame)
{
    const Clock::time_point start = Clock::now();
    Bytes response = link.roundTrip(std::move(request_frame));
    last_us = micros(start, Clock::now());
    return response;
}

bool
TimingTransport::roundTripInto(const Bytes &request_frame,
                               Bytes &response)
{
    const Clock::time_point start = Clock::now();
    const bool ok = link.roundTripInto(request_frame, response);
    last_us = micros(start, Clock::now());
    return ok;
}

bool
readProc(pid_t pid, ProcStats &out)
{
    const std::string dir = "/proc/" + std::to_string(pid);

    std::ifstream stat_file(dir + "/stat");
    std::string stat;
    if (!std::getline(stat_file, stat))
        return false;
    // Fields after the parenthesised command name, which may itself
    // hold spaces: state is field 3, utime 14, stime 15.
    const size_t paren = stat.rfind(')');
    if (paren == std::string::npos)
        return false;
    std::istringstream fields(stat.substr(paren + 2));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int index = 3; fields >> field; ++index) {
        if (index == 14)
            utime = std::strtod(field.c_str(), nullptr);
        if (index == 15) {
            stime = std::strtod(field.c_str(), nullptr);
            break;
        }
    }
    out.cpu_s = (utime + stime) /
        static_cast<double>(sysconf(_SC_CLK_TCK));

    std::ifstream status(dir + "/status");
    std::string line;
    while (std::getline(status, line)) {
        const auto value = [&line](const char *key, double &into) {
            const size_t n = std::strlen(key);
            if (line.compare(0, n, key) == 0)
                into = std::strtod(line.c_str() + n, nullptr);
        };
        value("VmRSS:", out.rss_kib);
        value("VmHWM:", out.hwm_kib);
        value("Threads:", out.threads);
    }

    DIR *fds = opendir((dir + "/fd").c_str());
    if (!fds)
        return false;
    out.fds = 0.0;
    while (const dirent *entry = readdir(fds))
        if (entry->d_name[0] != '.')
            out.fds += 1.0;
    closedir(fds);
    return true;
}

namespace
{

/** Numeric field `"key": <number>` of one JSONL object. */
double
jsonNumber(const std::string &line, const char *key)
{
    const std::string needle = std::string("\"") + key + "\": ";
    const size_t at = line.find(needle);
    if (at == std::string::npos)
        return 0.0;
    return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

} // namespace

ServerMetrics
ServerMetrics::parse(const std::string &jsonl)
{
    static const std::string prefix = "{\"name\": \"";
    ServerMetrics out;
    std::istringstream lines(jsonl);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::string name;
        size_t i = prefix.size();
        for (; i < line.size() && line[i] != '"'; ++i) {
            if (line[i] == '\\' && i + 1 < line.size())
                ++i;
            name += line[i];
        }
        MetricValue &m = out.by_name[name];
        m.value = jsonNumber(line, "value");
        m.count = jsonNumber(line, "count");
        m.sum = jsonNumber(line, "sum");
        m.p50 = jsonNumber(line, "p50");
        m.p99 = jsonNumber(line, "p99");
    }
    return out;
}

MetricValue
ServerMetrics::get(const std::string &name) const
{
    const auto it = by_name.find(name);
    return it == by_name.end() ? MetricValue{} : it->second;
}

MetricValue
ServerMetrics::span(const std::string &name) const
{
    return get("livephase_span_us{span=\"" + name + "\"}");
}

namespace
{

/** Replay results land here so the timed loops cannot be elided. */
volatile size_t replay_sink = 0;

/** Frames a micro-replay runs over: the first batches of every
 *  slot, capped so a replay pass stays short. */
struct Frame
{
    uint64_t session_id;
    RecordView records;
    std::span<const IntervalResult> expected;
};

std::vector<Frame>
replayFrames(const Inputs &in, size_t life_batches)
{
    constexpr size_t MAX_FRAMES = 4096;
    std::vector<Frame> frames;
    for (size_t b = 0; b < life_batches; ++b)
        for (size_t s = 0; s < in.slots.size(); ++s) {
            if (frames.size() == MAX_FRAMES)
                return frames;
            frames.push_back({s + 1, in.records(in.slots[s], b),
                              in.expected(in.slots[s], b)});
        }
    return frames;
}

/** Run `pass` until at least 0.1 s have elapsed; ns per pass. */
template <typename Pass>
double
nsPerPass(Pass &&pass)
{
    const Clock::time_point start = Clock::now();
    size_t passes = 0;
    double elapsed_ns = 0.0;
    do {
        pass();
        ++passes;
        elapsed_ns = std::chrono::duration<double, std::nano>(
                         Clock::now() - start)
                         .count();
    } while (elapsed_ns < 1e8);
    return elapsed_ns / static_cast<double>(passes);
}

} // namespace

ProtocolReplay
replayProtocol(const Inputs &in, size_t life_batches)
{
    const std::vector<Frame> frames = replayFrames(in, life_batches);
    double intervals = 0.0;
    std::vector<Bytes> requests, responses;
    for (const Frame &f : frames) {
        intervals += static_cast<double>(f.records.size());
        Bytes &req = requests.emplace_back();
        encodeSubmitRequestInto(req, f.session_id, f.records);
        Bytes &resp = responses.emplace_back();
        // Untraced, untagged requests are v1 frames; the server
        // echoes the request's version.
        encodeSubmitResponseInto(
            resp, static_cast<uint16_t>(Op::SubmitBatch),
            f.session_id, f.expected, PROTOCOL_VERSION_MIN);
    }

    ProtocolReplay out;
    for (size_t i = 0; i < frames.size(); ++i)
        out.bytes += static_cast<double>(requests[i].size() +
                                         responses[i].size());
    out.bytes /= intervals;

    size_t sink = 0;
    Bytes tx;
    out.encode_ns = nsPerPass([&] {
        for (const Frame &f : frames) {
            encodeSubmitRequestInto(tx, f.session_id, f.records);
            sink += tx.size();
        }
    }) / intervals;

    Arena arena;
    out.parse_ns = nsPerPass([&] {
        for (const Bytes &frame : requests) {
            arena.reset();
            RequestView view;
            if (parseRequest(ByteView(frame), arena, view) ==
                Status::Ok)
                sink += view.records.size();
        }
    }) / intervals;

    std::vector<IntervalResult> results;
    out.decode_ns = nsPerPass([&] {
        for (const Bytes &frame : responses) {
            ResponseView view;
            if (parseResponse(ByteView(frame), view) &&
                decodeSubmitResultsInto(view.body, results))
                sink += results.size();
        }
    }) / intervals;

    replay_sink = sink;
    return out;
}

CoreReplay
replayGpht(const Inputs &in, size_t life_batches)
{
    // The server's per-session pipeline: Table-1 classification,
    // then GPHT(8, 128), fed in the workload's batch size.
    const PhaseClassifier classes = PhaseClassifier::table1();
    std::vector<std::vector<PhaseSample>> samples;
    double intervals = 0.0;
    for (const Slot &slot : in.slots) {
        std::vector<PhaseSample> &s = samples.emplace_back();
        for (size_t b = 0; b < life_batches; ++b)
            for (const IntervalRecord &rec : in.records(slot, b))
                s.push_back(classes.sample(rec.bus_tran_mem / rec.uops));
        intervals += static_cast<double>(s.size());
    }

    const GphtPredictor prototype(8, 128);
    std::vector<PhaseId> predictions(in.batch);
    CoreReplay out;
    double total_ns = 0.0;
    size_t passes = 0;
    do {
        // Fresh predictors per pass, built outside the timed loop.
        std::vector<GphtPredictor> preds(in.slots.size(), prototype);
        const Clock::time_point start = Clock::now();
        for (size_t s = 0; s < preds.size(); ++s)
            for (size_t at = 0; at < samples[s].size(); at += in.batch)
                preds[s].observeAndPredictBatch(
                    std::span<const PhaseSample>(samples[s])
                        .subspan(at, in.batch),
                    predictions);
        total_ns += std::chrono::duration<double, std::nano>(
                        Clock::now() - start)
                        .count();
        if (passes++ == 0) {
            double hits = 0.0, lookups = 0.0;
            for (const GphtPredictor &p : preds) {
                hits += static_cast<double>(p.stats().hits);
                lookups += static_cast<double>(p.stats().lookups);
            }
            out.hit_rate = lookups > 0.0 ? hits / lookups : 0.0;
        }
    } while (total_ns < 1e8);
    out.gpht_ns = total_ns / (static_cast<double>(passes) * intervals);
    return out;
}

} // namespace perfbench
