// Unit tests of the FIMB binary database format.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>

#include "data/binary_io.h"
#include "data/fimi_io.h"
#include "data/generators.h"
#include "test_rows.h"

#ifndef FIM_MEM_PROFILE
// The largest single allocation this test binary asked for, so a test
// can show a reader allocates nothing large. Requests past kCap fail
// with bad_alloc instead of being served, so a reader that sizes a
// buffer from an untrusted length fails its test and spares the host.
// (A FIM_MEM_PROFILE build replaces operator new itself.)
namespace {
std::atomic<std::size_t> largest_allocation{0};
constexpr std::size_t kCap = std::size_t{256} << 20;
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (size > kCap) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never sees free() meet a pointer from
// operator new at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace fim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(BinaryIoTest, RoundTrip) {
  const TransactionDatabase db = GenerateRandomDense(50, 40, 0.2, 99);
  const std::string path = TempPath("roundtrip.fimb");
  ASSERT_TRUE(WriteBinaryFile(db, path).ok());
  auto back = ReadBinaryFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(RowsOf(back.value()), RowsOf(db));
  EXPECT_EQ(back.value().NumItems(), db.NumItems());
}

TEST(BinaryIoTest, PreservesDeclaredItemBase) {
  TransactionDatabase db = TransactionDatabase::FromTransactions({{1}});
  db.SetNumItems(100);  // declared larger than any occurring item
  const std::string path = TempPath("itembase.fimb");
  ASSERT_TRUE(WriteBinaryFile(db, path).ok());
  auto back = ReadBinaryFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().NumItems(), 100u);
}

TEST(BinaryIoTest, RejectsNonBinaryFile) {
  const std::string path = TempPath("not_binary.txt");
  {
    std::ofstream out(path);
    out << "1 2 3\n";
  }
  auto result = ReadBinaryFile(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, RejectsTruncatedFile) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 1, 2}, {3, 4}});
  const std::string path = TempPath("truncated.fimb");
  ASSERT_TRUE(WriteBinaryFile(db, path).ok());
  // Chop the last bytes off.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_FALSE(ReadBinaryFile(path).ok());
}

// Header fields, little-endian as the format stores them.
template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::string FimbHeader(uint64_t num_items, uint64_t num_transactions) {
  std::string bytes = "FIMB";
  Put(&bytes, uint32_t{1});
  Put(&bytes, num_items);
  Put(&bytes, num_transactions);
  return bytes;
}

TEST(BinaryIoTest, HugeDeclaredRowInTruncatedFileAllocatesNothing) {
  // One row that claims 2^32 - 1 items (16 GiB) but carries two.
  std::string bytes = FimbHeader(10, 1);
  Put(&bytes, uint32_t{0xFFFFFFFF});
  Put(&bytes, uint32_t{1});
  Put(&bytes, uint32_t{2});
  const std::string path = TempPath("huge_row.fimb");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
#ifndef FIM_MEM_PROFILE
  largest_allocation = 0;
#endif
  const auto from_file = ReadBinaryFile(path);
  const auto from_bytes = ParseFimb(bytes);
  ASSERT_FALSE(from_file.ok());
  EXPECT_EQ(from_file.status().code(), StatusCode::kInvalidArgument);
  ASSERT_FALSE(from_bytes.ok());
  EXPECT_EQ(from_bytes.status().code(), StatusCode::kInvalidArgument);
#ifndef FIM_MEM_PROFILE
  EXPECT_LT(largest_allocation.load(), std::size_t{1} << 20);
#endif
}

TEST(BinaryIoTest, HugeDeclaredRowCountIsBoundedByTheBytes) {
  std::string bytes = FimbHeader(10, ~uint64_t{0});
  Put(&bytes, uint32_t{1});
  Put(&bytes, uint32_t{3});
  const auto result = ParseFimb(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, ParseFimbRoundTripsToFimbString) {
  TransactionDatabase db = GenerateRandomDense(30, 20, 0.3, 5);
  db.SetNumItems(25);
  const auto back = ParseFimb(ToFimbString(db));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(RowsOf(back.value()), RowsOf(db));
  EXPECT_EQ(back.value().NumItems(), 25u);
}

TEST(BinaryIoTest, NormalizesUnsortedRowsAndRejectsOutOfBoundsItems) {
  std::string bytes = FimbHeader(10, 2);
  for (uint32_t v : {3u, 7u, 2u, 7u}) Put(&bytes, v);  // row {7, 2, 7}
  Put(&bytes, uint32_t{0});                            // an empty row
  const auto normalized = ParseFimb(bytes);
  ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
  EXPECT_EQ(RowsOf(normalized.value()),
            (std::vector<std::vector<ItemId>>{{2, 7}}));

  std::string out_of_bounds = FimbHeader(5, 1);
  Put(&out_of_bounds, uint32_t{1});
  Put(&out_of_bounds, uint32_t{5});
  EXPECT_EQ(ParseFimb(out_of_bounds).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BinaryIoTest, AutoDetectDispatch) {
  const TransactionDatabase db = TransactionDatabase::FromTransactions(
      {{0, 2}, {1, 2}});
  const std::string binary = TempPath("auto.fimb");
  const std::string text = TempPath("auto.fimi");
  ASSERT_TRUE(WriteBinaryFile(db, binary).ok());
  ASSERT_TRUE(WriteFimiFile(db, text).ok());
  auto from_binary = ReadDatabaseFile(binary);
  auto from_text = ReadDatabaseFile(text);
  ASSERT_TRUE(from_binary.ok());
  ASSERT_TRUE(from_text.ok());
  EXPECT_EQ(RowsOf(from_binary.value()), RowsOf(db));
  EXPECT_EQ(RowsOf(from_text.value()), RowsOf(db));
}

TEST(BinaryIoTest, MissingFile) {
  EXPECT_EQ(ReadBinaryFile("/no/such.fimb").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(ReadDatabaseFile("/no/such.fimb").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace fim
