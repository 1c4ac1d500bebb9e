#include "support/io.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "support/check.h"
#include "support/fault.h"
#include "support/json.h"

namespace xcv::support {

namespace {

std::string FaultPoint(const char* prefix, const char* suffix) {
  std::string point = prefix;
  point += '.';
  point += suffix;
  return point;
}

#ifndef _WIN32

void WriteAll(int fd, const char* data, std::size_t size,
              const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      XCV_CHECK_MSG(false, "write to '" << path << "' failed");
    }
    written += static_cast<std::size_t>(n);
  }
}

void FsyncDirectoryOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return;  // best-effort: some filesystems refuse dir opens
  ::fsync(dfd);
  ::close(dfd);
}

#endif  // !_WIN32

}  // namespace

void AtomicWriteFile(const std::string& path, std::string_view data,
                     const char* fault_prefix) {
  const std::string tmp = path + ".tmp";
  bool tear = false;
  std::size_t size = data.size();
  if (fault_prefix != nullptr &&
      fault::MaybeShortWrite(FaultPoint(fault_prefix, "short-write").c_str())) {
    // Torn write: persist only a prefix, make it visible, then die — the
    // simulation of a rename that became durable before its data did.
    tear = true;
    size /= 2;
  }
#ifndef _WIN32
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  XCV_CHECK_MSG(fd >= 0, "cannot open '" << tmp << "' for writing");
  WriteAll(fd, data.data(), size, tmp);
  if (!tear) XCV_CHECK_MSG(::fsync(fd) == 0, "fsync '" << tmp << "' failed");
  ::close(fd);
#else
  {
    std::ofstream os(tmp, std::ios::trunc | std::ios::binary);
    XCV_CHECK_MSG(os.good(), "cannot open '" << tmp << "' for writing");
    os.write(data.data(), static_cast<std::streamsize>(size));
    XCV_CHECK_MSG(os.good(), "write to '" << tmp << "' failed");
  }
#endif
  if (fault_prefix != nullptr)
    fault::MaybeCrash(FaultPoint(fault_prefix, "crash-before-rename").c_str());
  XCV_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                "rename '" << tmp << "' -> '" << path << "' failed");
  if (tear) fault::CrashNow();
#ifndef _WIN32
  FsyncDirectoryOf(path);
#endif
}

bool ReadFileToString(const std::string& path, std::string* out,
                      const char* fault_prefix) {
  if (fault_prefix != nullptr &&
      fault::MaybeEio(FaultPoint(fault_prefix, "eio").c_str()))
    return false;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) return false;
  *out = buf.str();
  return true;
}

void TouchFile(const std::string& path) {
#ifndef _WIN32
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return;
  ::futimens(fd, nullptr);
  ::close(fd);
#else
  std::ofstream os(path, std::ios::trunc);
  os << 'x';
#endif
}

// ---- Document checksums -----------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// FNV-1a 64 continued from `h`, so a document can be hashed around a hole
/// without copying it.
std::uint64_t HashMore(std::uint64_t h, std::string_view text) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV-1a prime
  }
  return h;
}

constexpr const char kChecksumField[] = "\"checksum\": \"";

std::string HexChecksum(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Best-effort copy of a damaged file's bytes to "<path>.corrupt", so
/// salvage/cold recovery never destroys the evidence. Returns the
/// quarantine path, or "" when the copy could not be written.
std::string QuarantineFile(const std::string& path, std::string_view bytes) {
  const std::string qpath = path + ".corrupt";
  std::ofstream os(qpath, std::ios::trunc | std::ios::binary);
  if (!os.good()) return "";
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return os.good() ? qpath : "";
}

}  // namespace

std::uint64_t HashBytes(std::string_view text) {
  return HashMore(kFnvOffsetBasis, text);
}

std::string AddDocumentChecksum(std::string json) {
  const std::size_t version = json.find("\"version\": ");
  if (version == std::string::npos) return json;
  const std::size_t eol = json.find('\n', version);
  if (eol == std::string::npos) return json;
  const std::string line =
      "  " + std::string(kChecksumField) + HexChecksum(HashBytes(json)) +
      "\",\n";
  json.insert(eol + 1, line);
  return json;
}

ChecksumStatus VerifyDocumentChecksum(const std::string& text) {
  const std::size_t field = text.find(kChecksumField);
  if (field == std::string::npos) return ChecksumStatus::kAbsent;
  const std::size_t hex = field + sizeof(kChecksumField) - 1;
  if (hex + 16 > text.size()) return ChecksumStatus::kMismatch;
  // Hash around the whole checksum line: from the start of its line
  // through the trailing newline (when present).
  std::size_t line_start = text.rfind('\n', field);
  line_start = line_start == std::string::npos ? 0 : line_start + 1;
  std::size_t line_end = text.find('\n', field);
  line_end = line_end == std::string::npos ? text.size() : line_end + 1;
  const std::string_view view(text);
  const std::uint64_t h = HashMore(
      HashMore(kFnvOffsetBasis, view.substr(0, line_start)),
      view.substr(line_end));
  return view.substr(hex, 16) == HexChecksum(h) ? ChecksumStatus::kOk
                                                 : ChecksumStatus::kMismatch;
}

// ---- Durable documents ------------------------------------------------------

LoadOutcome ParseDocument(const std::string& text, const DocumentKind& kind,
                          const DocumentCallback& on_header,
                          const DocumentCallback& on_item) {
  LoadOutcome out;
  auto cold = [&out](std::string why) {
    out.cold = true;
    out.detail = std::move(why);
    return out;
  };
  const bool mismatch =
      VerifyDocumentChecksum(text) == ChecksumStatus::kMismatch;
  json::JsonValue root;
  bool torn = false;
  try {
    root = json::ParseJson(text);
  } catch (const InternalError&) {
    torn = true;
  }
  if (!torn && mismatch) return cold("checksum mismatch (content corruption)");

  std::size_t records = 0;  // torn: one past the record array's '['
  try {
    if (torn) {
      // The record array is written last, so the bytes in front of it
      // hold the whole header.
      const std::string marker = std::string("\"") + kind.items + "\": [";
      const std::size_t at = text.find(marker);
      XCV_CHECK_MSG(at != std::string::npos,
                    "torn before its " << kind.items << " array");
      records = at + marker.size();
      root = json::ParseJson(text.substr(0, records) + "]\n}\n");
    }
    XCV_CHECK_MSG(root.At("format").AsString() == kind.format,
                  "not an " << kind.format << " document");
    json::RequireSupportedSchema(root, kind.format, kind.schema);
    XCV_CHECK_MSG(root.At(kind.items).kind == json::JsonValue::Kind::kArray,
                  "'" << kind.items << "' is not an array");
    if (on_header) on_header(root);
  } catch (const InternalError& e) {
    return cold(std::string("damaged header: ") + e.what());
  }

  std::size_t dropped = 0;
  auto offer = [&](auto&& record) {
    try {
      on_item(record());
      ++out.items_recovered;
    } catch (const InternalError&) {
      ++dropped;  // one damaged record must not take the rest down
    }
  };
  if (!torn) {
    for (const json::JsonValue& item : root.At(kind.items).array)
      offer([&]() -> const json::JsonValue& { return item; });
  } else {
    // Carve each record object out with the balanced-bracket scanner; the
    // scan ends at the first one that does not close (the torn tail).
    for (std::size_t pos = records;;) {
      pos = text.find_first_not_of(", \t\r\n", pos);
      if (pos == std::string::npos || text[pos] != '{') break;
      const std::size_t end = json::SkipBalanced(text, pos);
      if (end == std::string::npos) break;
      offer([&] { return json::ParseJson(text.substr(pos, end - pos)); });
      pos = end;
    }
  }
  if (!torn && dropped == 0) {
    out.clean = true;
    return out;
  }
  out.salvaged = true;
  out.detail = std::string(torn ? "torn document, " : "") + "kept " +
               std::to_string(out.items_recovered) + " intact " +
               kind.items + " record(s)";
  if (dropped > 0)
    out.detail += ", dropped " + std::to_string(dropped) + " damaged";
  return out;
}

LoadOutcome LoadDocument(const std::string& path, const DocumentKind& kind,
                         const DocumentCallback& on_header,
                         const DocumentCallback& on_item) {
  std::string text;
  if (!ReadFileToString(path, &text, kind.load_fault)) {
    LoadOutcome out;
    out.cold = true;
    out.detail = "cannot read '" + path + "'";
    return out;
  }
  LoadOutcome out = ParseDocument(text, kind, on_header, on_item);
  if (!out.clean) {
    out.quarantine_path = QuarantineFile(path, text);
    out.detail = std::string(kind.format) + " '" + path + "': " + out.detail;
  }
  return out;
}

}  // namespace xcv::support
