/** @file Tests for the sparse simulated memory. */

#include <gtest/gtest.h>

#include <vector>

#include "common/logging.hh"
#include "isa/sparse_memory.hh"

using namespace sciq;

TEST(SparseMemory, UntouchedReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.read(0xFFFFFFFFFFFFFF00ULL, 4), 0u);
    EXPECT_EQ(m.numPages(), 0u);
}

TEST(SparseMemory, ReadWriteWidths)
{
    SparseMemory m;
    m.write(0x100, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x100, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x100, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x104, 4), 0x11223344u);
    EXPECT_EQ(m.read(0x100, 1), 0x88u);
    EXPECT_EQ(m.read(0x107, 1), 0x11u);
}

TEST(SparseMemory, PartialWritePreservesNeighbours)
{
    SparseMemory m;
    m.write(0x200, 8, ~0ULL);
    m.write(0x202, 2, 0);
    EXPECT_EQ(m.read(0x200, 8), 0xFFFFFFFF0000FFFFULL);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr boundary = SparseMemory::kPageSize;
    m.write(boundary - 4, 8, 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(m.read(boundary - 4, 8), 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(m.numPages(), 2u);
}

TEST(SparseMemory, WrapAroundAddressSpaceIsSafe)
{
    SparseMemory m;
    // Wrong-path execution can produce addresses near 2^64.
    m.write(~0ULL - 3, 8, 0x1234567890ABCDEFULL);
    EXPECT_EQ(m.read(~0ULL - 3, 8), 0x1234567890ABCDEFULL);
}

TEST(SparseMemory, Blobs)
{
    SparseMemory m;
    std::uint8_t data[5] = {1, 2, 3, 4, 5};
    m.writeBlob(0x300, data, 5);
    std::uint8_t out[5] = {};
    m.readBlob(0x300, out, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST(SparseMemory, UnalignedBlobSpanningThreePagesMatchesByteWrites)
{
    // Starts mid-page, covers one whole page and ends mid-page.
    const Addr base = 3 * SparseMemory::kPageSize - 37;
    const std::size_t len = SparseMemory::kPageSize + 37 + 101;
    std::vector<std::uint8_t> data(len);
    for (std::size_t i = 0; i < len; ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);

    SparseMemory blob, bytes;
    blob.writeBlob(base, data.data(), len);
    for (std::size_t i = 0; i < len; ++i)
        bytes.write(base + i, 1, data[i]);
    EXPECT_EQ(blob.numPages(), 3u);
    EXPECT_EQ(blob.numPages(), bytes.numPages());
    EXPECT_TRUE(blob.equalContents(bytes));
    for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(blob.read(base + i, 1), data[i]) << "byte " << i;
    EXPECT_EQ(blob.read(base - 1, 1), 0u);
    EXPECT_EQ(blob.read(base + len, 1), 0u);

    std::vector<std::uint8_t> out(len, 0xAA);
    blob.readBlob(base, out.data(), len);
    EXPECT_EQ(out, data);
}

TEST(SparseMemory, ReadBlobAcrossUnmappedPageReadsZeros)
{
    SparseMemory m;
    const Addr page = SparseMemory::kPageSize;
    m.write(page - 2, 2, 0xBBAA);       // end of page 0
    m.write(2 * page, 2, 0xDDCC);       // start of page 2; page 1 unmapped
    std::vector<std::uint8_t> out(page + 4, 0xEE);
    m.readBlob(page - 2, out.data(), out.size());
    EXPECT_EQ(out[0], 0xAA);
    EXPECT_EQ(out[1], 0xBB);
    for (std::size_t i = 2; i < page + 2; ++i)
        ASSERT_EQ(out[i], 0u) << "byte " << i;
    EXPECT_EQ(out[page + 2], 0xCC);
    EXPECT_EQ(out[page + 3], 0xDD);
    EXPECT_EQ(m.numPages(), 2u);  // reading never allocates
}

TEST(SparseMemory, Doubles)
{
    SparseMemory m;
    m.writeDouble(0x400, 3.14159);
    EXPECT_DOUBLE_EQ(m.readDouble(0x400), 3.14159);
    m.writeDouble(0x408, -0.0);
    EXPECT_EQ(m.read(0x408, 8), 0x8000000000000000ULL);
}

TEST(SparseMemory, EqualContentsIgnoresZeroPages)
{
    SparseMemory a, b;
    EXPECT_TRUE(a.equalContents(b));
    a.write(0x100, 8, 0);  // allocates a page of zeros
    EXPECT_TRUE(a.equalContents(b));
    EXPECT_TRUE(b.equalContents(a));
    a.write(0x100, 1, 7);
    EXPECT_FALSE(a.equalContents(b));
    b.write(0x100, 1, 7);
    EXPECT_TRUE(a.equalContents(b));
    b.write(0x5000, 4, 9);
    EXPECT_FALSE(a.equalContents(b));
}

TEST(SparseMemory, BadSizePanics)
{
    SparseMemory m;
    EXPECT_THROW(m.read(0, 0), PanicError);
    EXPECT_THROW(m.read(0, 9), PanicError);
    EXPECT_THROW(m.write(0, 16, 1), PanicError);
}
