/**
 * @file
 * Binary serialization primitives for the checkpoint subsystem.
 *
 * A Writer appends fixed-width little-endian fields to an in-memory
 * buffer; a Reader consumes the same encoding with strict bounds
 * checking (every truncation or tag mismatch throws serial::Error with
 * a message naming the offset).  Components implement
 * `save(serial::Writer &)` / `restore(serial::Reader &)` pairs against
 * these primitives; the versioned container format lives one layer up
 * in sim/checkpoint.{hh,cc}.
 */

#ifndef SCIQ_COMMON_SERIALIZE_HH
#define SCIQ_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace sciq {
namespace serial {

/** Malformed/truncated stream.  Checkpoint layers wrap it with context. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Incremental FNV-1a (64-bit) for small key and fingerprint hashes. */
class Fnv64
{
  public:
    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ULL;
        }
    }

    void
    update(std::uint64_t v)
    {
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        update(bytes, 8);
    }

    void update(std::string_view s) { update(s.data(), s.size()); }

    std::uint64_t digest() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ULL;
};

// XXH64 reads 8-byte words as they lie in memory; the digest is defined
// over little-endian words.
static_assert(std::endian::native == std::endian::little,
              "serial::xxh64 assumes a little-endian host");

/**
 * XXH64 (the public xxHash 64-bit algorithm) for bulk bytes: checkpoint
 * trailers and program data images.  Four independent multiply lanes
 * over 32-byte stripes run at memory speed where byte-serial FNV-1a
 * manages about a byte per nanosecond; FNV-1a stays for small keys.
 */
inline std::uint64_t
xxh64(const void *data, std::size_t len, std::uint64_t seed = 0)
{
    constexpr std::uint64_t p1 = 0x9E3779B185EBCA87ULL;
    constexpr std::uint64_t p2 = 0xC2B2AE3D27D4EB4FULL;
    constexpr std::uint64_t p3 = 0x165667B19E3779F9ULL;
    constexpr std::uint64_t p4 = 0x85EBCA77C2B2AE63ULL;
    constexpr std::uint64_t p5 = 0x27D4EB2F165667C5ULL;
    const auto *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + len;
    auto read64 = [](const unsigned char *q) {
        std::uint64_t v;
        std::memcpy(&v, q, 8);
        return v;
    };
    auto round = [](std::uint64_t acc, std::uint64_t input) {
        return std::rotl(acc + input * p2, 31) * p1;
    };
    auto merge = [&round](std::uint64_t h, std::uint64_t acc) {
        return (h ^ round(0, acc)) * p1 + p4;
    };

    std::uint64_t h;
    if (len >= 32) {
        std::uint64_t v1 = seed + p1 + p2;
        std::uint64_t v2 = seed + p2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - p1;
        for (; end - p >= 32; p += 32) {
            v1 = round(v1, read64(p));
            v2 = round(v2, read64(p + 8));
            v3 = round(v3, read64(p + 16));
            v4 = round(v4, read64(p + 24));
        }
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = merge(merge(merge(merge(h, v1), v2), v3), v4);
    } else {
        h = seed + p5;
    }
    h += len;

    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ round(0, read64(p)), 27) * p1 + p4;
    if (end - p >= 4) {
        std::uint32_t w;
        std::memcpy(&w, p, 4);
        h = std::rotl(h ^ (std::uint64_t{w} * p1), 23) * p2 + p3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ (std::uint64_t{*p} * p5), 11) * p1;

    h ^= h >> 33;
    h *= p2;
    h ^= h >> 29;
    h *= p3;
    h ^= h >> 32;
    return h;
}

/** Append-only little-endian encoder over a std::string buffer. */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t len)
    {
        buf.append(static_cast<const char *>(data), len);
    }

    /** Length-prefixed string. */
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** 4-character section marker ("L1D_", "BPRD", ...). */
    void
    tag(const char (&t)[5])
    {
        bytes(t, 4);
    }

    const std::string &buffer() const { return buf; }
    std::string take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/** Bounds-checked little-endian decoder over a borrowed buffer. */
class Reader
{
  public:
    explicit Reader(std::string_view data_) : data(data_) {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(data[pos++]);
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(u8()) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(u8()) << (8 * i);
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, data.data() + pos, len);
        pos += len;
    }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        need(len);
        std::string s(data.substr(pos, len));
        pos += len;
        return s;
    }

    /** Consume a 4-character section marker; mismatch is an Error. */
    void
    expectTag(const char (&t)[5])
    {
        need(4);
        if (data.compare(pos, 4, t, 4) != 0) {
            throw Error("expected section '" + std::string(t) +
                        "' at offset " + std::to_string(pos) + ", found '" +
                        std::string(data.substr(pos, 4)) + "'");
        }
        pos += 4;
    }

    std::size_t offset() const { return pos; }
    std::size_t remaining() const { return data.size() - pos; }

  private:
    void
    need(std::size_t n)
    {
        if (data.size() - pos < n) {
            throw Error("truncated stream: need " + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos) +
                        ", have " + std::to_string(data.size() - pos));
        }
    }

    std::string_view data;
    std::size_t pos = 0;
};

} // namespace serial
} // namespace sciq

#endif // SCIQ_COMMON_SERIALIZE_HH
