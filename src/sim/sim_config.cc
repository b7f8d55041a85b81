#include "sim_config.hh"

#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/errors.hh"
#include "common/json.hh"
#include "sim/config_fields.hh"

namespace sciq {

namespace {

/** Whether an entry's `bits` fall in `classes` and carry all `flags`. */
bool
selected(unsigned bits, unsigned classes, unsigned flags)
{
    return (bits & classes) != 0 && (bits & flags) == flags;
}

/** Parses the keys present in a ConfigMap into the table's fields. */
struct Applier
{
    const ConfigMap &m;

    template <typename T>
    void
    operator()(const char *k, unsigned, T &f, std::int64_t min = 0)
    {
        if (!m.has(k))
            return;
        if constexpr (std::is_same_v<T, bool>) {
            f = m.getBool(k, f);
        } else if constexpr (std::is_same_v<T, std::string>) {
            f = m.getString(k);
        } else if constexpr (std::is_same_v<T, IqKind>) {
            const std::string kind = m.getString(k);
            for (IqKind c : {IqKind::Ideal, IqKind::Segmented,
                             IqKind::Prescheduled, IqKind::Fifo}) {
                if (kind == iqKindName(c)) {
                    f = c;
                    return;
                }
            }
            throw ConfigError("unknown iq kind '" + kind +
                              "' (ideal|segmented|prescheduled|fifo)");
        } else if constexpr (std::is_same_v<T, double>) {
            f = m.getDouble(k, f);
            if (!(f >= static_cast<double>(min)))
                outOfRange(k, min);
        } else {
            const std::int64_t v = m.getCount(k, 0);
            if (v < min || std::cmp_greater(v, std::numeric_limits<T>::max()))
                outOfRange(k, min);
            f = static_cast<T>(v);
        }
    }

    [[noreturn]] void
    outOfRange(const char *k, std::int64_t min) const
    {
        throw ConfigError("config key '" + std::string(k) + "': '" +
                          m.getString(k) + "' is out of range (minimum " +
                          std::to_string(min) + ")");
    }
};

} // namespace

std::vector<std::string>
configKeys(unsigned classes, unsigned flags)
{
    std::vector<std::string> keys;
    const SimConfig defaults;
    visitConfigFields(
        [&](const char *k, unsigned bits, auto &&...) {
            if (selected(bits, classes, flags))
                keys.push_back(k);
        },
        defaults);
    return keys;
}

std::string
configString(const SimConfig &config, unsigned classes)
{
    std::ostringstream os;
    const char *sep = "";
    visitConfigFields(
        [&](const char *k, unsigned bits, const auto &f, auto &&...) {
            if (!selected(bits, classes, 0))
                return;
            os << sep << k << '=';
            sep = " ";
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, double>)
                json::writeNumber(os, f);
            else if constexpr (std::is_same_v<T, IqKind>)
                os << iqKindName(f);
            else
                os << f;
        },
        config);
    return os.str();
}

ConfigMap
configOverrides(const ConfigMap &args, unsigned classes, unsigned flags)
{
    ConfigMap out;
    for (const std::string &key : configKeys(classes, flags)) {
        if (args.has(key))
            out.set(key, args.getString(key));
    }
    return out;
}

void
SimConfig::apply(const ConfigMap &cfg,
                 const std::vector<std::string> &own_keys)
{
    std::vector<std::string> known = configKeys(ConfigClass::All);
    known.insert(known.end(), own_keys.begin(), own_keys.end());
    const std::string complaint = cfg.unknownKeyMessage(known);
    if (!complaint.empty())
        throw ConfigError(complaint);
    visitConfigFields(Applier{cfg}, *this);
}

void
SimConfig::printParameters(std::ostream &os) const
{
    CoreParams p = core;
    p.finalize();
    os << "Processor parameters (paper Table 1):\n"
       << "  front end          : " << p.fetchToDecode
       << " cycles fetch-to-decode, " << p.decodeToDispatch
       << " cycles decode-to-dispatch\n"
       << "  fetch              : up to " << p.fetchWidth
       << " insts/cycle, max " << p.maxBranchesPerFetch
       << " branches/cycle\n"
       << "  dispatch/issue/commit bandwidth: " << p.dispatchWidth
       << " insts/cycle\n"
       << "  IQ design          : " << iqKindName(p.iqKind) << ", "
       << p.iq.numEntries << " entries";
    if (p.iqKind == IqKind::Segmented) {
        os << " (" << p.iq.numEntries / p.iq.segmentSize << " segments of "
           << p.iq.segmentSize << "), chains="
           << (p.iq.maxChains < 0 ? std::string("unlimited")
                                  : std::to_string(p.iq.maxChains))
           << (p.iq.useHmp ? ", HMP" : "") << (p.iq.useLrp ? ", LRP" : "");
    }
    os << "\n  ROB                : " << p.robSize << " entries\n"
       << "  function units     : 8 each of intALU/intMUL/fpADD/fpMUL/"
          "cache port\n"
       << "  latencies          : int mul 3, div 20; fp add 2, mul 4, "
          "div 12, sqrt 24\n"
       << "  L1I/L1D            : 64 KB 2-way 64 B lines; 1 / 3 cycle; "
          "32 MSHRs\n"
       << "  L2                 : 1 MB 4-way 64 B lines, 10-cycle, "
          "64 B/cycle to L1\n"
       << "  memory             : 100-cycle latency, 8 B/cycle\n"
       << "  branch predictor   : 21264-style hybrid local/global\n";
}

SimConfig
makeIdealConfig(unsigned iq_size, const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Ideal;
    cfg.core.iq.numEntries = iq_size;
    cfg.workload = workload;
    return cfg;
}

SimConfig
makeSegmentedConfig(unsigned iq_size, int chains, bool hmp, bool lrp,
                    const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Segmented;
    cfg.core.iq.numEntries = iq_size;
    cfg.core.iq.segmentSize = 32;
    cfg.core.iq.maxChains = chains;
    cfg.core.iq.useHmp = hmp;
    cfg.core.iq.useLrp = lrp;
    cfg.workload = workload;
    return cfg;
}

SimConfig
makePrescheduledConfig(unsigned total_slots, const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Prescheduled;
    cfg.core.iq.numEntries = total_slots;
    cfg.core.iq.issueBufferSize = 32;
    cfg.core.iq.preschedLineWidth = 12;
    cfg.workload = workload;
    return cfg;
}

SimConfig
makeFifoConfig(unsigned fifos, unsigned depth, const std::string &workload)
{
    SimConfig cfg;
    cfg.core.iqKind = IqKind::Fifo;
    cfg.core.iq.numEntries = fifos * depth;
    cfg.core.iq.numFifos = fifos;
    cfg.core.iq.fifoDepth = depth;
    cfg.workload = workload;
    return cfg;
}

} // namespace sciq
