#include "journal.hh"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

#include "common/errors.hh"
#include "sim/run_result_fields.hh"

namespace sciq {

std::string
sweepKey(const SimConfig &config)
{
    const CoreParams &c = config.core;
    const IqParams &iq = c.iq;
    std::ostringstream os;
    os << "workload=" << config.workload << " iters=" << config.wl.iterations
       << " seed=" << config.wl.seed << " scale=" << config.wl.scale
       << " iq=" << iqKindName(c.iqKind) << " iq_size=" << iq.numEntries;
    switch (c.iqKind) {
      case IqKind::Segmented:
        os << " seg_size=" << iq.segmentSize << " chains=" << iq.maxChains
           << " hmp=" << iq.useHmp << " lrp=" << iq.useLrp
           << " pushdown=" << iq.enablePushdown
           << " bypass=" << iq.enableBypass << " resize=" << iq.dynamicResize
           << " resize_interval=" << iq.resizeInterval;
        break;
      case IqKind::Prescheduled:
        os << " line_width=" << iq.preschedLineWidth
           << " issue_buffer=" << iq.issueBufferSize;
        break;
      case IqKind::Fifo:
        os << " fifos=" << iq.numFifos << " depth=" << iq.fifoDepth;
        break;
      case IqKind::Ideal:
        break;
    }
    os << " wrong_path=" << c.modelWrongPath << " ff=" << config.fastForward
       << " max_cycles=" << config.maxCycles;
    return os.str();
}

namespace {

/** Compact writer over the shared field list. */
struct CompactWriter
{
    std::ostream &os;
    bool first = true;

    void
    sep(const char *key)
    {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << key << "\":";
    }


    void str(const char *key, const std::string &v)
    {
        sep(key);
        json::writeString(os, v);
    }
    void uns(const char *key, unsigned v) { sep(key); os << v; }
    void i(const char *key, int v) { sep(key); os << v; }
    void u64(const char *key, std::uint64_t v) { sep(key); os << v; }
    void num(const char *key, double v) { sep(key); json::writeNumber(os, v); }
    void b(const char *key, bool v) { sep(key); os << (v ? "true" : "false"); }
};

/**
 * Range-checked narrowing for journal/wire-supplied numbers.  A corrupt
 * or hostile line must make the parse throw (and the tolerant loaders
 * skip the line), never reach the undefined behaviour of an
 * out-of-range double-to-integer cast.
 */
std::uint64_t
checkedU64(const json::Value &v)
{
    const double d = v.asNumber();
    if (!(d >= 0.0) || d > 9007199254740992.0 /* 2^53 */ ||
        d != std::floor(d)) {
        throw std::range_error("journal number out of range");
    }
    return static_cast<std::uint64_t>(d);
}

int
checkedI32(const json::Value &v)
{
    const double d = v.asNumber();
    if (!(d >= -2147483648.0) || d > 2147483647.0 || d != std::floor(d))
        throw std::range_error("journal number out of range");
    return static_cast<int>(d);
}

/** Parser counterpart: pulls each field out of a json object. */
struct FieldReader
{
    const json::Value &obj;

    void
    str(const char *key, std::string &v)
    {
        if (obj.contains(key))
            v = obj.at(key).asString();
    }
    void
    uns(const char *key, unsigned &v)
    {
        if (!obj.contains(key))
            return;
        const std::uint64_t u = checkedU64(obj.at(key));
        if (u > 0xffffffffull)
            throw std::range_error("journal number out of range");
        v = static_cast<unsigned>(u);
    }
    void
    i(const char *key, int &v)
    {
        if (obj.contains(key))
            v = checkedI32(obj.at(key));
    }
    void
    u64(const char *key, std::uint64_t &v)
    {
        if (obj.contains(key))
            v = checkedU64(obj.at(key));
    }
    void
    num(const char *key, double &v)
    {
        if (!obj.contains(key))
            return;
        // `null` is the tree-wide encoding of an undefined rate
        // (json::writeNumber); read it back as a quiet NaN.
        const json::Value &f = obj.at(key);
        v = f.isNull() ? std::nan("") : f.asNumber();
    }
    void
    b(const char *key, bool &v)
    {
        if (obj.contains(key))
            v = obj.at(key).asBool();
    }
};

} // namespace

void
writeResultCompactJson(std::ostream &os, const RunResult &r)
{
    os << "{";
    CompactWriter w{os};
    visitRunResultFields(w, r);
    w.sep("outcome");
    json::writeString(os, jobStatusName(r.outcome.status));
    w.sep("error_code");
    json::writeString(os, errorCodeName(r.outcome.code));
    w.sep("error_msg");
    json::writeString(os, r.outcome.message);
    w.sep("attempts");
    os << r.outcome.attempts;
    os << "}";
}

RunResult
resultFromJson(const json::Value &obj)
{
    RunResult r;
    FieldReader reader{obj};
    visitRunResultFields(reader, r);
    if (obj.contains("outcome"))
        r.outcome.status = jobStatusFromName(obj.at("outcome").asString());
    if (obj.contains("error_code"))
        r.outcome.code = errorCodeFromName(obj.at("error_code").asString());
    if (obj.contains("error_msg"))
        r.outcome.message = obj.at("error_msg").asString();
    if (obj.contains("attempts")) {
        const std::uint64_t u = checkedU64(obj.at("attempts"));
        if (u > 0xffffffffull)
            throw std::range_error("journal number out of range");
        r.outcome.attempts = static_cast<unsigned>(u);
    }
    return r;
}

std::vector<JournalEntry>
loadJournal(const std::string &path)
{
    std::vector<JournalEntry> entries;
    std::ifstream in(path);
    if (!in)
        return entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JournalEntry entry;
        try {
            const json::Value v = json::parse(line);
            entry.index = static_cast<std::size_t>(checkedU64(v.at("index")));
            entry.key = v.at("key").asString();
            entry.result = resultFromJson(v.at("result"));
        } catch (const std::exception &) {
            // A killed writer leaves at most one truncated tail line;
            // anything unparseable is simply not a finished job.
            continue;
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

std::size_t
applyJournal(const std::string &path,
             const std::vector<std::string> &keys,
             std::vector<RunResult> &results, std::vector<char> &have)
{
    std::size_t reused = 0;
    for (JournalEntry &entry : loadJournal(path)) {
        if (entry.index >= keys.size() || keys[entry.index] != entry.key)
            continue;
        if (entry.result.outcome.ok()) {
            results[entry.index] = std::move(entry.result);
            if (!have[entry.index])
                ++reused;
            have[entry.index] = 1;
        } else {
            if (have[entry.index])
                --reused;
            have[entry.index] = 0;
        }
    }
    return reused;
}

ResultJournal::ResultJournal(const std::string &path, bool sync)
    : path_(path), sync_(sync)
{
    // A writer killed mid-record leaves a torn tail line with no
    // newline; appending straight after it would corrupt the first new
    // record too.  Start on a fresh line instead.
    bool needNewline = false;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        if (in && in.tellg() > 0) {
            in.seekg(-1, std::ios::end);
            needNewline = in.get() != '\n';
        }
    }
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
        throw ResourceError("cannot open result journal '" + path +
                            "' for append: " + std::strerror(errno));
    }
    if (needNewline && ::write(fd_, "\n", 1) != 1) {
        const std::string msg = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw ResourceError("write to result journal '" + path +
                            "' failed: " + msg);
    }
}

ResultJournal::~ResultJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
ResultJournal::record(std::size_t index, const std::string &key,
                      const RunResult &result)
{
    std::ostringstream line;
    line << "{\"index\":" << index << ",\"key\":";
    json::writeString(line, key);
    line << ",\"result\":";
    writeResultCompactJson(line, result);
    line << "}\n";
    const std::string buf = line.str();

    std::lock_guard<std::mutex> lock(mu_);
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::write(fd_, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw ResourceError("write to result journal '" + path_ +
                                "' failed: " + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    // The coordinator acks a result to its worker only after this
    // returns; with sync_ the row must be durable, not merely in the
    // page cache, before that ack can release the worker's copy.
    if (sync_ && ::fsync(fd_) != 0) {
        throw ResourceError("fsync of result journal '" + path_ +
                            "' failed: " + std::strerror(errno));
    }
}

} // namespace sciq
