#include "data/binary_io.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "data/fimi_io.h"
#include "obs/memory.h"

namespace fim {

namespace {

constexpr char kMagic[4] = {'F', 'I', 'M', 'B'};
constexpr uint32_t kVersion = 1;

bool HasFimbMagic(std::string_view bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

template <typename T>
void Put(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Copies one scalar out of `bytes` at `*pos` and advances past it;
// returns false when fewer than sizeof(T) bytes are left.
template <typename T>
bool Take(std::string_view bytes, std::size_t* pos, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (bytes.size() - *pos < sizeof(T)) return false;
  std::memcpy(value, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

namespace io {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::error_code error;
  const std::filesystem::file_status status =
      std::filesystem::status(path, error);
  if (std::filesystem::is_directory(status)) {
    return Status::IoError(path + " is a directory");
  }
  std::string bytes;
  if (std::filesystem::is_regular_file(status)) {
    const std::uintmax_t size = std::filesystem::file_size(path, error);
    if (!error) {
      bytes.resize(static_cast<std::size_t>(size));
      in.read(bytes.data(), static_cast<std::streamsize>(size));
      if (static_cast<std::uintmax_t>(in.gcount()) != size) {
        return Status::IoError("read failure on " + path);
      }
      return bytes;
    }
  }
  // No size to go by (a pipe, say): read until the end.
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IoError("read failure on " + path);
  return bytes;
}

}  // namespace io

std::string ToFimbString(const TransactionDatabase& db) {
  std::string out;
  out.reserve(sizeof(kMagic) + sizeof(kVersion) + 2 * sizeof(uint64_t) +
              (db.NumTransactions() + db.TotalItemOccurrences()) *
                  sizeof(uint32_t));
  out.append(kMagic, sizeof(kMagic));
  Put(&out, kVersion);
  Put(&out, static_cast<uint64_t>(db.NumItems()));
  Put(&out, static_cast<uint64_t>(db.NumTransactions()));
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::span<const ItemId> t = db.transaction(k);
    Put(&out, static_cast<uint32_t>(t.size()));
    out.append(reinterpret_cast<const char*>(t.data()),
               t.size() * sizeof(ItemId));
  }
  return out;
}

Status WriteBinaryFile(const TransactionDatabase& db,
                       const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  const std::string bytes = ToFimbString(db);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Result<TransactionDatabase> ParseFimb(std::string_view bytes) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kReader);
  if (!HasFimbMagic(bytes)) {
    return Status::InvalidArgument("not a FIMB file");
  }
  std::size_t pos = sizeof(kMagic);
  uint32_t version = 0;
  uint64_t num_items = 0;
  uint64_t num_transactions = 0;
  if (!Take(bytes, &pos, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported FIMB version");
  }
  if (!Take(bytes, &pos, &num_items) ||
      !Take(bytes, &pos, &num_transactions)) {
    return Status::InvalidArgument("truncated FIMB header");
  }

  TransactionDatabase db;
  for (uint64_t k = 0; k < num_transactions; ++k) {
    uint32_t length = 0;
    if (!Take(bytes, &pos, &length)) {
      return Status::InvalidArgument("truncated FIMB transaction header");
    }
    // The row must fit in the bytes left before it may size anything.
    if (length > (bytes.size() - pos) / sizeof(ItemId)) {
      return Status::InvalidArgument("truncated FIMB transaction");
    }
    if (length == 0) continue;  // an empty row is dropped
    // Straight into the tail of the database's items, normalized in
    // place by CloseTransaction.
    const std::size_t begin = db.items_.size();
    db.items_.resize(begin + length);
    std::memcpy(db.items_.data() + begin, bytes.data() + pos,
                length * sizeof(ItemId));
    pos += length * sizeof(ItemId);
    for (std::size_t i = begin; i < db.items_.size(); ++i) {
      if (db.items_[i] >= num_items) {
        return Status::InvalidArgument("FIMB item id out of bounds");
      }
    }
    db.CloseTransaction();
  }
  db.SetNumItems(static_cast<std::size_t>(num_items));
  return db;
}

Result<TransactionDatabase> ReadBinaryFile(const std::string& path) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kReader);
  Result<std::string> bytes = io::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return ParseFimb(bytes.value());
}

Result<TransactionDatabase> ReadDatabaseFile(const std::string& path) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kReader);
  Result<std::string> bytes = io::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (HasFimbMagic(bytes.value())) return ParseFimb(bytes.value());
  return ParseFimi(bytes.value());
}

}  // namespace fim
