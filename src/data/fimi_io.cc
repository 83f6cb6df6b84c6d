#include "data/fimi_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "data/binary_io.h"
#include "obs/memory.h"

namespace fim {

namespace {

// The separators of the format: the "C" locale's whitespace, of which
// '\n' ends a line.
bool IsBlank(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

Status LineError(std::size_t line_no, const std::string& error) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                 error);
}

}  // namespace

Result<TransactionDatabase> ParseFimi(std::string_view text) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kReader);
  TransactionDatabase db;
  const char* p = text.data();
  const char* const text_end = p + text.size();
  for (std::size_t line_no = 1; p != text_end; ++line_no) {
    const auto* newline = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(text_end - p)));
    const char* const line_end = newline != nullptr ? newline : text_end;
    if (p != line_end && *p != '#') {
      // Item ids go straight into the tail of the database's items; the
      // row is normalized in place when the line ends.
      for (;;) {
        while (p != line_end && IsBlank(*p)) ++p;
        if (p == line_end) break;
        if (!IsDigit(*p)) {
          return LineError(line_no,
                           "unexpected character '" + std::string(1, *p) + "'");
        }
        uint64_t value = 0;
        do {
          value = value * 10 + static_cast<uint64_t>(*p - '0');
          if (value > kInvalidItem - 1) {
            return LineError(line_no, "item id out of range");
          }
          ++p;
        } while (p != line_end && IsDigit(*p));
        db.items_.push_back(static_cast<ItemId>(value));
      }
      db.CloseTransaction();
    }
    if (newline == nullptr) break;
    p = newline + 1;
  }
  return db;
}

Result<TransactionDatabase> ReadFimiFile(const std::string& path) {
  obs::MemDomainScope mem_domain(obs::MemDomain::kReader);
  Result<std::string> text = io::ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseFimi(text.value());
}

std::string ToFimiString(const TransactionDatabase& db) {
  std::string out;
  for (std::size_t k = 0; k < db.NumTransactions(); ++k) {
    const std::span<const ItemId> t = db.transaction(k);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(t[i]);
    }
    out += '\n';
  }
  return out;
}

Status WriteFimiFile(const TransactionDatabase& db, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ToFimiString(db);
  out.flush();
  if (!out) return Status::IoError("write failure on " + path);
  return Status::OK();
}

}  // namespace fim
