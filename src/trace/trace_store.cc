#include "trace/trace_store.hh"

#include <bit>
#include <cstddef>
#include <cstring>
#include <span>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace csim {

namespace {

constexpr char storeMagic[8] = {'c', 's', 'i', 'm', 't', 'r', 'c', '2'};
constexpr std::uint32_t storeVersion = 2;
/** Written as 0x01020304 by a little-endian host; any other byte
 *  order reads it back differently. */
constexpr std::uint32_t endianTag = 0x01020304u;
/** Header flag bits this build understands: none. A store carrying
 *  any flag (bit 0 once marked a retired varint column encoding) is a
 *  layout this loader cannot map, so it loads as BadVersion. */
constexpr std::uint32_t knownFlags = 0;

/** Columns in Trace order: five wide, then seven byte. */
constexpr std::size_t numColumns = 12;
constexpr std::size_t columnElemBytes[numColumns] = {8, 8, 8, 8, 8,
                                                     1, 1, 1, 1, 1,
                                                     1, 1};
static_assert(5 * 8 + 7 == Trace::rowBytes,
              "the store's columns are the Trace's columns");

struct ColumnDesc
{
    std::uint64_t offset; ///< from file start; 8-byte aligned
    std::uint64_t bytes;  ///< count * element size
};

struct StoreHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint64_t count;
    std::uint64_t capacity;
    std::uint64_t producerLinks;
    std::uint32_t flags;
    std::uint32_t columnCount;
    ColumnDesc col[numColumns];
};

// The header is written/read as raw bytes, so its layout is the file
// format; pin it down.
static_assert(sizeof(ColumnDesc) == 16);
static_assert(sizeof(StoreHeader) == 240,
              "trace v2 header must stay 240 bytes");
static_assert(offsetof(StoreHeader, count) == 16 &&
                  offsetof(StoreHeader, flags) == 40 &&
                  offsetof(StoreHeader, col) == 48,
              "trace v2 header field offsets changed");
static_assert(sizeof(StoreHeader) % 8 == 0,
              "column offsets right after the header must stay "
              "8-byte aligned");
static_assert(sizeof(Addr) == 8 && sizeof(InstId) == 8 &&
                  sizeof(Opcode) == 1 && sizeof(OpClass) == 1 &&
                  sizeof(RegIndex) == 1,
              "column element types changed size; bump the store "
              "version");

std::uint64_t
alignUp8(std::uint64_t v)
{
    return (v + 7) & ~std::uint64_t{7};
}

/** Fixed (capacity-sized) column offsets for the raw layout. */
void
rawLayout(std::uint64_t capacity, ColumnDesc out[numColumns])
{
    std::uint64_t offset = sizeof(StoreHeader);
    for (std::size_t c = 0; c < numColumns; ++c) {
        out[c].offset = offset;
        out[c].bytes = capacity * columnElemBytes[c];
        offset = alignUp8(offset + out[c].bytes);
    }
}

std::uint64_t
rawLayoutEnd(std::uint64_t capacity)
{
    ColumnDesc col[numColumns];
    rawLayout(capacity, col);
    return alignUp8(col[numColumns - 1].offset +
                    col[numColumns - 1].bytes);
}

bool
pwriteAll(int fd, const void *buf, std::size_t len, std::uint64_t off)
{
    const char *p = static_cast<const char *>(buf);
    while (len > 0) {
        const ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(off));
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<std::size_t>(n);
        off += static_cast<std::uint64_t>(n);
    }
    return true;
}

/** Column c's base pointer, in store (and Trace) column order. */
const void *
columnData(const TraceColumns &cols, std::size_t c)
{
    switch (c) {
      case 0: return cols.pc;
      case 1: return cols.memAddr;
      case 2: case 3: case 4: return cols.prod[c - 2];
      case 5: return cols.op;
      case 6: return cols.cls;
      case 7: return cols.execLat;
      case 8: return cols.flags;
      case 9: return cols.dest;
      case 10: return cols.src1;
      case 11: return cols.src2;
      default: CSIM_PANIC("columnData: bad column");
    }
}

struct Unmapper
{
    std::size_t len;
    void
    operator()(const void *base) const
    {
        ::munmap(const_cast<void *>(base), len);
    }
};

struct FdCloser
{
    int fd;
    ~FdCloser()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

} // anonymous namespace

const char *
traceIoStatusName(TraceIoStatus s)
{
    switch (s) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::CannotOpen: return "cannot open";
      case TraceIoStatus::BadMagic: return "bad magic";
      case TraceIoStatus::BadVersion: return "bad version";
      case TraceIoStatus::Truncated: return "truncated";
      case TraceIoStatus::BadEndianness: return "bad endianness";
      default: return "unknown";
    }
}

TraceStoreWriter::TraceStoreWriter(const std::string &path,
                                   std::uint64_t capacityInstructions)
    : path_(path), capacity_(capacityInstructions)
{
    fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd_ < 0)
        return;
    // Placeholder header (count 0): a writer that dies before
    // finalize() leaves an explicitly empty store, not garbage.
    StoreHeader hdr = {};
    std::memcpy(hdr.magic, storeMagic, sizeof(storeMagic));
    hdr.version = storeVersion;
    hdr.endian = endianTag;
    hdr.count = 0;
    hdr.capacity = capacity_;
    hdr.flags = 0;
    hdr.columnCount = numColumns;
    rawLayout(capacity_, hdr.col);
    for (std::size_t c = 0; c < numColumns; ++c)
        hdr.col[c].bytes = 0;
    if (!pwriteAll(fd_, &hdr, sizeof(hdr), 0))
        failed_ = true;
}

TraceStoreWriter::~TraceStoreWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
TraceStoreWriter::append(const Trace &chunk)
{
    if (!ok() || finalized_)
        return false;
    if (written_ + chunk.size() > capacity_) {
        failed_ = true;
        return false;
    }
    if (chunk.empty())
        return true;

    ColumnDesc col[numColumns];
    rawLayout(capacity_, col);
    const TraceSoA view = chunk.soa();
    for (std::size_t c = 0; c < numColumns; ++c) {
        const std::uint64_t off =
            col[c].offset + written_ * columnElemBytes[c];
        if (!pwriteAll(fd_, columnData(view.columns(), c),
                       chunk.size() * columnElemBytes[c], off)) {
            failed_ = true;
            return false;
        }
    }
    producerLinks_ += view.producerLinks();
    written_ += chunk.size();
    return true;
}

bool
TraceStoreWriter::finalize()
{
    if (!ok() || finalized_)
        return false;
    StoreHeader hdr = {};
    std::memcpy(hdr.magic, storeMagic, sizeof(storeMagic));
    hdr.version = storeVersion;
    hdr.endian = endianTag;
    hdr.count = written_;
    hdr.capacity = capacity_;
    hdr.producerLinks = producerLinks_;
    hdr.flags = 0;
    hdr.columnCount = numColumns;
    rawLayout(capacity_, hdr.col);
    for (std::size_t c = 0; c < numColumns; ++c)
        hdr.col[c].bytes = written_ * columnElemBytes[c];
    // Extend to the full capacity layout (sparse when written_ <
    // capacity_) so every column's extent is inside the file.
    if (::ftruncate(fd_, static_cast<off_t>(rawLayoutEnd(capacity_))) !=
            0 ||
        !pwriteAll(fd_, &hdr, sizeof(hdr), 0)) {
        failed_ = true;
        return false;
    }
    finalized_ = true;
    ::close(fd_);
    fd_ = -1;
    return true;
}

bool
saveTraceStore(const Trace &trace, const std::string &path)
{
    TraceStoreWriter writer(path, trace.size());
    return writer.append(trace) && writer.finalize();
}

TraceIoStatus
loadTraceStore(TraceSoA &soa, const std::string &path,
               TraceStoreInfo *info)
{
    if constexpr (std::endian::native != std::endian::little)
        return TraceIoStatus::BadEndianness;

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return TraceIoStatus::CannotOpen;
    FdCloser closer{fd};

    struct stat st = {};
    if (::fstat(fd, &st) != 0)
        return TraceIoStatus::CannotOpen;
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(st.st_size);
    if (file_bytes < sizeof(storeMagic))
        return TraceIoStatus::Truncated;

    char got_magic[sizeof(storeMagic)];
    if (::pread(fd, got_magic, sizeof(got_magic), 0) !=
        static_cast<ssize_t>(sizeof(got_magic)))
        return TraceIoStatus::Truncated;
    if (std::memcmp(got_magic, storeMagic, 7) != 0)
        return TraceIoStatus::BadMagic;
    // Shared "csimtrc" prefix, different tail: a v1 file (the retired
    // AoS format) is a version mismatch, anything else is not one of
    // our trace files.
    if (got_magic[7] != storeMagic[7])
        return got_magic[7] == '\0' ? TraceIoStatus::BadVersion
                                    : TraceIoStatus::BadMagic;
    if (file_bytes < sizeof(StoreHeader))
        return TraceIoStatus::Truncated;

    void *base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE,
                        fd, 0);
    if (base == MAP_FAILED)
        return TraceIoStatus::CannotOpen;
    std::shared_ptr<const void> mapping(
        base, Unmapper{static_cast<std::size_t>(file_bytes)});

    StoreHeader hdr;
    std::memcpy(&hdr, base, sizeof(hdr));
    if (hdr.version != storeVersion || hdr.columnCount != numColumns ||
        (hdr.flags & ~knownFlags))
        return TraceIoStatus::BadVersion;
    if (hdr.endian != endianTag)
        return TraceIoStatus::BadEndianness;
    if (hdr.count > hdr.capacity)
        return TraceIoStatus::Truncated;
    for (std::size_t c = 0; c < numColumns; ++c) {
        const ColumnDesc &col = hdr.col[c];
        // Extent check phrased to be immune to uint64 wrap: a crafted
        // col.bytes near 2^64 must not pass via offset+bytes overflow
        // and then read past the mapping.
        if (col.offset % 8 != 0 || col.offset < sizeof(StoreHeader) ||
            col.offset > static_cast<std::uint64_t>(file_bytes) ||
            col.bytes >
                static_cast<std::uint64_t>(file_bytes) - col.offset)
            return TraceIoStatus::Truncated;
        if (col.bytes != hdr.count * columnElemBytes[c])
            return TraceIoStatus::Truncated;
    }

    // Every column holds exactly count elements; the byte columns'
    // extents bound count by the file size, so count * 8 cannot wrap.
    const std::size_t n = hdr.count;
    const std::byte *map = static_cast<const std::byte *>(base);
    auto column = [&](std::size_t c) { return map + hdr.col[c].offset; };
    TraceColumns cols;
    cols.size = n;
    cols.producerLinks = hdr.producerLinks;
    cols.pc = reinterpret_cast<const Addr *>(column(0));
    cols.memAddr = reinterpret_cast<const Addr *>(column(1));
    for (int slot = 0; slot < numSrcSlots; ++slot)
        cols.prod[slot] =
            reinterpret_cast<const InstId *>(column(2 + slot));
    cols.op = reinterpret_cast<const Opcode *>(column(5));
    cols.cls = reinterpret_cast<const OpClass *>(column(6));
    cols.execLat = reinterpret_cast<const std::uint8_t *>(column(7));
    cols.flags = reinterpret_cast<const std::uint8_t *>(column(8));
    cols.dest = reinterpret_cast<const RegIndex *>(column(9));
    cols.src1 = reinterpret_cast<const RegIndex *>(column(10));
    cols.src2 = reinterpret_cast<const RegIndex *>(column(11));
    if (info) {
        info->instructions = n;
        info->fileBytes = file_bytes;
    }
    soa = TraceSoA(cols, std::move(mapping));
    return TraceIoStatus::Ok;
}

Trace
extractRegion(const TraceSoA &soa, std::uint64_t base,
              std::uint64_t len)
{
    CSIM_ASSERT(base <= soa.size());
    const std::uint64_t end =
        len < soa.size() - base ? base + len : soa.size();
    Trace region;
    region.appendRows(soa, base, end);
    for (int slot = 0; slot < numSrcSlots; ++slot) {
        const std::span<const InstId> prod = soa.prod(slot);
        for (std::uint64_t i = base; i < end; ++i) {
            const InstId p = prod[i];
            region.setProd(i - base, slot,
                           p == invalidInstId || p < base ? invalidInstId
                                                          : p - base);
        }
    }
    return region;
}

} // namespace csim
