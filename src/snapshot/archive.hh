/**
 * @file
 * Snapshot container format: versioned, hash-verified binary sections.
 *
 * A snapshot file is a flat sequence of named sections, each guarded by
 * its own FNV-1a hash, under a root hash over the section table:
 *
 *   "FSOISNP\0"  magic (8 bytes)
 *   u32          format version (kFormatVersion)
 *   u32          section count
 *   u64          root hash (FNV-1a over every section's name bytes and
 *                its size and hash in their little-endian encoding)
 *   per section: u16 name length, name bytes,
 *                u64 payload size, u64 payload hash, payload bytes
 *
 * Integrity is checked section by section at open time, so a truncated
 * or bit-flipped file fails with a *named* diagnosis — e.g.
 * "snapshot.corrupt: mesh.router[12]" — instead of feeding garbage into
 * component state. All multi-byte values are little-endian regardless
 * of host; doubles travel as their IEEE-754 bit patterns, so restored
 * state (and the hashes over it) is bit-exact.
 *
 * Cost: a save or restore is close to one hash pass over the bytes.
 * Scalars are single little-endian loads and stores, every payload is
 * hashed once (four sections in lockstep, fnv1aEach), and writeFile()
 * streams the section buffers without building a concatenated copy.
 *
 * Everything here is header-only and depends on the standard library
 * alone: simulator components serialize through Writer/Reader, while
 * offline tools (stats_report --snapshot) can parse the container
 * without linking any simulator code.
 *
 * Compatibility policy: the format version is bumped on ANY layout
 * change, and restore refuses other versions outright. Snapshots are
 * short-lived artifacts (crash-resume points, warm-start seeds, CI
 * manifests regenerated with the tree), never a long-term archive, so
 * there is deliberately no cross-version migration path.
 */

#ifndef FSOI_SNAPSHOT_ARCHIVE_HH
#define FSOI_SNAPSHOT_ARCHIVE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace fsoi::snapshot {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr char kMagic[8] = {'F', 'S', 'O', 'I', 'S', 'N', 'P', 0};

/** Any malformed / corrupt / mismatched snapshot throws this; the
 *  what() string is the named diagnosis (`snapshot.corrupt: ...`). */
struct SnapshotError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

/** 64-bit FNV-1a over a byte range, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** A read-only byte range. */
struct ByteSpan
{
    const std::uint8_t *data;
    std::size_t size;
};

/**
 * FNV-1a of every span: result[i] == fnv1a(spans[i].data,
 * spans[i].size), bit for bit. One FNV-1a stream is a serial
 * xor->multiply chain that runs at the multiplier's latency (about 4
 * cycles/byte); four independent streams in lockstep keep the
 * multiplier busy instead. Spans are taken longest first in groups of
 * four so that a group's lanes end close together. The bytes a lane
 * has beyond its group's shortest span, and the last spans that do not
 * fill a group, take the scalar path.
 */
inline std::vector<std::uint64_t>
fnv1aEach(const std::vector<ByteSpan> &spans)
{
    const std::size_t n = spans.size();
    std::vector<std::uint64_t> out(n);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&spans](std::size_t a, std::size_t b) {
                         return spans[a].size > spans[b].size;
                     });
    std::size_t g = 0;
    for (; g + 4 <= n; g += 4) {
        const ByteSpan &a = spans[order[g]];
        const ByteSpan &b = spans[order[g + 1]];
        const ByteSpan &c = spans[order[g + 2]];
        const ByteSpan &d = spans[order[g + 3]]; // the shortest
        std::uint64_t ha = kFnvBasis, hb = kFnvBasis;
        std::uint64_t hc = kFnvBasis, hd = kFnvBasis;
        for (std::size_t i = 0; i < d.size; ++i) {
            ha = (ha ^ a.data[i]) * kFnvPrime;
            hb = (hb ^ b.data[i]) * kFnvPrime;
            hc = (hc ^ c.data[i]) * kFnvPrime;
            hd = (hd ^ d.data[i]) * kFnvPrime;
        }
        out[order[g]] = fnv1a(a.data + d.size, a.size - d.size, ha);
        out[order[g + 1]] = fnv1a(b.data + d.size, b.size - d.size, hb);
        out[order[g + 2]] = fnv1a(c.data + d.size, c.size - d.size, hc);
        out[order[g + 3]] = hd;
    }
    for (; g < n; ++g)
        out[order[g]] = fnv1a(spans[order[g]].data, spans[order[g]].size);
    return out;
}

namespace detail {

static_assert(std::endian::native == std::endian::little
                  || std::endian::native == std::endian::big,
              "snapshot encoding needs a little- or big-endian host");

/** Host order <-> little-endian wire order for an unsigned scalar: a
 *  no-op on little-endian hosts, a byte swap (its own inverse) on
 *  big-endian ones. */
template <typename T>
constexpr T
littleEndian(T v)
{
    static_assert(std::is_unsigned_v<T>);
    if constexpr (std::endian::native == std::endian::little
                  || sizeof(T) == 1) {
        return v;
    } else {
        T swapped = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            swapped = static_cast<T>((swapped << 8) | (v & 0xff));
            v = static_cast<T>(v >> 8);
        }
        return swapped;
    }
}

} // namespace detail

/** Append-only byte buffer with explicit little-endian encoders.
 *  Values are written field by field — never whole structs — so struct
 *  padding can't leak indeterminate bytes into the hashes. Each scalar
 *  is one little-endian store into a geometrically grown buffer. */
class Writer
{
  public:
    void
    raw(const void *data, std::size_t n)
    {
        if (n != 0)
            std::memcpy(grow(n), data, n);
    }

    void u8(std::uint8_t v) { put(v); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }
    void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }

    /** IEEE-754 bit pattern: restore is bit-exact, hashes are stable. */
    void dbl(double v) { put(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    /** Make room for @p n more bytes up front (for large sections whose
     *  size is known; growth is geometric either way). */
    void
    reserve(std::size_t n)
    {
        if (cap_ - size_ < n)
            expand(size_ + n);
    }

    const std::uint8_t *data() const { return buf_.get(); }
    std::size_t size() const { return size_; }

  private:
    template <typename T>
    void
    put(T v)
    {
        v = detail::littleEndian(v);
        std::memcpy(grow(sizeof(T)), &v, sizeof(T));
    }

    /** Claim the next @p n bytes of the buffer. Kept small so that it
     *  inlines into the encoders; the rare growth stays out of line. */
    std::uint8_t *
    grow(std::size_t n)
    {
        if (cap_ - size_ < n) [[unlikely]]
            expand(std::max({2 * cap_, size_ + n, std::size_t{256}}));
        std::uint8_t *p = buf_.get() + size_;
        size_ += n;
        return p;
    }

    /** Move to a buffer of at least @p cap bytes, rounded up to a power
     *  of two as geometric growth from 256 would be. The spare capacity
     *  is left uninitialised, so memory the section never writes is
     *  never touched (no zero-fill page faults). */
    [[gnu::noinline]] void
    expand(std::size_t cap)
    {
        cap = std::bit_ceil(cap);
        auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
        if (size_ != 0)
            std::memcpy(bigger.get(), buf_.get(), size_);
        buf_ = std::move(bigger);
        cap_ = cap;
    }

    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/** Bounds-checked reader over one section's payload: each value costs
 *  one bounds check and one load. Reading past the end throws a
 *  diagnosis naming the section (can only happen on a writer/reader
 *  schema bug — corruption is caught by the hash). */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size, std::string name)
        : data_(data), size_(size), name_(std::move(name))
    {}

    void
    raw(void *out, std::size_t n)
    {
        const std::uint8_t *p = take(n);
        if (n != 0)
            std::memcpy(out, p, n);
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    bool boolean() { return u8() != 0; }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double dbl() { return std::bit_cast<double>(u64()); }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        return std::string(reinterpret_cast<const char *>(take(n)), n);
    }

    /**
     * An element count, read before any container is sized from it.
     * A count that cannot fit in the bytes left at @p min_bytes per
     * element throws snapshot.underrun: the hashes catch accidents,
     * not a file whose hashes were recomputed over a forged count.
     */
    std::uint64_t
    count(std::size_t min_bytes)
    {
        const std::uint64_t n = u64();
        if (n > remaining() / min_bytes)
            underrun();
        return n;
    }

    std::size_t remaining() const { return size_ - pos_; }
    const std::string &name() const { return name_; }

  private:
    /** Claim the next @p n bytes (compared against what is left, so a
     *  huge @p n cannot wrap the check). */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > size_ - pos_)
            underrun();
        const std::uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    template <typename T>
    T
    get()
    {
        T v{};
        std::memcpy(&v, take(sizeof(T)), sizeof(T));
        return detail::littleEndian(v);
    }

    [[noreturn, gnu::noinline]] void
    underrun() const
    {
        throw SnapshotError("snapshot.underrun: " + name_);
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string name_;
};

/** Builds a snapshot: open named sections, then serialize to a file
 *  (written atomically: temp file + rename) or a byte buffer. */
class SnapshotWriter
{
  public:
    /** Open a new section; the returned Writer stays valid for the
     *  lifetime of this SnapshotWriter. Sections are emitted in
     *  creation order. */
    Writer &
    section(std::string name)
    {
        sections_.emplace_back(std::move(name), Writer{});
        return sections_.back().second;
    }

    /** The snapshot's bytes: exactly what writeFile() stores. */
    std::vector<std::uint8_t>
    serialize() const
    {
        Writer head, table;
        const std::vector<ByteSpan> parts = pieces(head, table);
        std::size_t total = 0;
        for (const ByteSpan &p : parts)
            total += p.size;
        std::vector<std::uint8_t> out;
        out.reserve(total);
        for (const ByteSpan &p : parts)
            out.insert(out.end(), p.data, p.data + p.size);
        return out;
    }

    /** Write atomically (temp + rename) so a crash mid-write never
     *  leaves a half-written snapshot under the final name. */
    void
    writeFile(const std::string &path) const
    {
        Writer head, table;
        const std::vector<ByteSpan> parts = pieces(head, table);
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f)
            throw SnapshotError("snapshot.io: cannot write " + tmp);
        bool ok = true;
        for (const ByteSpan &p : parts) // an empty section has no buffer
            ok = ok
                && (p.size == 0
                    || std::fwrite(p.data, 1, p.size, f) == p.size);
        const bool closed = std::fclose(f) == 0;
        if (!ok || !closed) {
            std::remove(tmp.c_str());
            throw SnapshotError("snapshot.io: short write to " + tmp);
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            throw SnapshotError("snapshot.io: cannot rename to " + path);
        }
    }

  private:
    /**
     * The file as an ordered list of byte ranges, shared by serialize()
     * and writeFile(): the header goes into @p head, the table entries
     * into @p table, and the payloads stay in their section buffers, so
     * no concatenated copy is built. Every payload is hashed once
     * (fnv1aEach); the root hash runs over each entry's name, size and
     * hash exactly as encoded in the file, i.e. little-endian.
     */
    std::vector<ByteSpan>
    pieces(Writer &head, Writer &table) const
    {
        const std::size_t n = sections_.size();
        std::vector<ByteSpan> payloads;
        payloads.reserve(n);
        for (const auto &sec : sections_)
            payloads.push_back({sec.second.data(), sec.second.size()});
        const std::vector<std::uint64_t> hashes = fnv1aEach(payloads);

        std::vector<std::size_t> entryEnd(n);
        std::uint64_t root = kFnvBasis;
        for (std::size_t i = 0; i < n; ++i) {
            const std::string &name = sections_[i].first;
            table.u16(static_cast<std::uint16_t>(name.size()));
            const std::size_t covered = table.size();
            table.raw(name.data(), name.size());
            table.u64(payloads[i].size);
            table.u64(hashes[i]);
            root = fnv1a(table.data() + covered, table.size() - covered,
                         root);
            entryEnd[i] = table.size();
        }

        head.raw(kMagic, sizeof(kMagic));
        head.u32(kFormatVersion);
        head.u32(static_cast<std::uint32_t>(n));
        head.u64(root);

        // Only now, with the table complete, do pointers into it hold.
        std::vector<ByteSpan> parts;
        parts.reserve(1 + 2 * n);
        parts.push_back({head.data(), head.size()});
        std::size_t begin = 0;
        for (std::size_t i = 0; i < n; ++i) {
            parts.push_back({table.data() + begin, entryEnd[i] - begin});
            parts.push_back(payloads[i]);
            begin = entryEnd[i];
        }
        return parts;
    }

    std::deque<std::pair<std::string, Writer>> sections_;
};

/** Parses and verifies a snapshot; every section's hash is checked up
 *  front so consumers never read corrupt bytes. */
class SnapshotReader
{
  public:
    struct SectionInfo
    {
        std::string name;
        std::uint64_t size;
        std::uint64_t hash;
        std::size_t offset; //!< payload offset within the file
    };

    explicit SnapshotReader(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
        parse();
    }

    static SnapshotReader
    fromFile(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f)
            throw SnapshotError("snapshot.io: cannot open " + path);
        // Size the buffer one past the file's length, so a single read
        // fills it and its short count reports EOF; the loop still
        // copes with a file that is not seekable or grows meanwhile.
        std::vector<std::uint8_t> bytes;
        if (std::fseek(f, 0, SEEK_END) == 0) {
            const long end = std::ftell(f);
            if (end > 0)
                bytes.resize(static_cast<std::size_t>(end) + 1);
            std::rewind(f);
        }
        std::size_t used = 0;
        for (;;) {
            if (used == bytes.size())
                bytes.resize(std::max<std::size_t>(2 * used, 65536));
            const std::size_t want = bytes.size() - used;
            const std::size_t got =
                std::fread(bytes.data() + used, 1, want, f);
            used += got;
            if (got < want)
                break;
        }
        const bool failed = std::ferror(f) != 0;
        std::fclose(f);
        if (failed)
            throw SnapshotError("snapshot.io: cannot read " + path);
        bytes.resize(used);
        return SnapshotReader(std::move(bytes));
    }

    std::uint32_t version() const { return version_; }
    std::uint64_t rootHash() const { return root_; }
    const std::vector<SectionInfo> &sections() const { return sections_; }

    bool
    has(const std::string &name) const
    {
        for (const auto &s : sections_)
            if (s.name == name)
                return true;
        return false;
    }

    /** Open a section for reading; throws when absent. */
    Reader
    open(const std::string &name) const
    {
        for (const auto &s : sections_)
            if (s.name == name)
                return Reader(bytes_.data() + s.offset,
                              static_cast<std::size_t>(s.size), s.name);
        throw SnapshotError("snapshot.missing: " + name);
    }

  private:
    void
    parse()
    {
        Reader hdr(bytes_.data(), bytes_.size(), "header");
        char magic[8];
        hdr.raw(magic, sizeof(magic));
        if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
            throw SnapshotError("snapshot.bad_magic: not a snapshot file");
        version_ = hdr.u32();
        if (version_ != kFormatVersion)
            throw SnapshotError(
                "snapshot.version_mismatch: file has version "
                + std::to_string(version_) + ", this build reads "
                + std::to_string(kFormatVersion));
        const std::uint32_t count = hdr.u32();
        root_ = hdr.u64();
        std::size_t pos = bytes_.size() - hdr.remaining();
        // The root hash runs over each table entry's name, size and
        // hash as stored in the file (little-endian); it is checked
        // after the walk, before any payload is trusted, so a tampered
        // entry cannot let a payload "verify" against a forged hash.
        std::uint64_t root = kFnvBasis;
        for (std::uint32_t i = 0; i < count; ++i) {
            Reader sec(bytes_.data() + pos, bytes_.size() - pos,
                       "section table");
            SectionInfo info;
            const std::uint16_t name_len = sec.u16();
            info.name.resize(name_len);
            sec.raw(info.name.data(), name_len);
            info.size = sec.u64();
            info.hash = sec.u64();
            const std::size_t covered = std::size_t{name_len} + 16;
            root = fnv1a(bytes_.data() + pos + 2, covered, root);
            pos += 2 + covered;
            // Against the bytes left, not pos + size: a forged size
            // near 2^64 would wrap that sum past the check.
            if (info.size > bytes_.size() - pos)
                throw SnapshotError("snapshot.truncated: " + info.name);
            info.offset = pos;
            pos += static_cast<std::size_t>(info.size);
            sections_.push_back(std::move(info));
        }
        if (root != root_)
            throw SnapshotError("snapshot.corrupt: section table");

        std::vector<ByteSpan> payloads;
        payloads.reserve(sections_.size());
        for (const auto &s : sections_)
            payloads.push_back({bytes_.data() + s.offset,
                                static_cast<std::size_t>(s.size)});
        const std::vector<std::uint64_t> hashes = fnv1aEach(payloads);
        for (std::size_t i = 0; i < sections_.size(); ++i)
            if (hashes[i] != sections_[i].hash)
                throw SnapshotError("snapshot.corrupt: "
                                    + sections_[i].name);
    }

    std::vector<std::uint8_t> bytes_;
    std::uint32_t version_ = 0;
    std::uint64_t root_ = 0;
    std::vector<SectionInfo> sections_;
};

} // namespace fsoi::snapshot

#endif // FSOI_SNAPSHOT_ARCHIVE_HH
