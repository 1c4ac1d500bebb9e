// Durable file I/O shared by every on-disk document in the repo (campaign
// checkpoints, verdict caches, shard files, the xcvd queue journal and the
// node-health ledger).
//
// AtomicWriteFile is the one way state reaches disk: write a temp file,
// flush and fsync it, atomically rename it over the destination, then
// fsync the containing directory (POSIX) so the rename itself is durable.
// A crash at any instant leaves either the complete old file or the
// complete new file — never a torn one. The fault-injection layer
// (support/fault.h) threads through both helpers so chaos tests can tear
// exactly the writes they mean to.
//
// Document checksums: AddDocumentChecksum inserts a `"checksum": "<hex>"`
// field (FNV-1a 64 over every other byte of the document) into a JSON
// document right after its version field; VerifyDocumentChecksum excises
// that field and re-hashes. Readers accept documents without the field
// (legacy writers), so the formats stay backward-compatible.
//
// LoadDocument is the one way such a document comes back: one recovery
// policy (clean / salvaged / cold, see below) for every format, each of
// which only supplies its header and record parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace xcv::json {
struct JsonValue;
}

namespace xcv::support {

/// Atomically replaces `path` with `data`, fsyncing the temp file before
/// the rename and the parent directory after it. When `fault_prefix` is
/// non-null, the fault points "<prefix>.short-write" (persist a torn
/// prefix, then crash) and "<prefix>.crash-before-rename" (crash after
/// fsync, before rename — the old file must survive) are honoured when
/// armed. Throws xcv::InternalError on real I/O failure.
void AtomicWriteFile(const std::string& path, std::string_view data,
                     const char* fault_prefix = nullptr);

/// Reads the whole file into `*out`. Returns false when the file cannot be
/// opened or read — including when the "<prefix>.eio" fault point fires.
bool ReadFileToString(const std::string& path, std::string* out,
                      const char* fault_prefix = nullptr);

/// Creates `path` if absent and bumps its mtime — the heartbeat primitive
/// (`xcv resume --heartbeat`). Best-effort: failures are silent, a missed
/// beat just shortens the lease.
void TouchFile(const std::string& path);

/// FNV-1a 64 over `text` (the checksum hash; exposed for tests).
std::uint64_t HashBytes(std::string_view text);

/// Returns `json` with a `  "checksum": "<16 hex>",` line inserted after
/// its `"version"` line. The hash covers every byte of the document except
/// the inserted line, so VerifyDocumentChecksum can re-derive it. Returns
/// the input unchanged when no version line is found.
std::string AddDocumentChecksum(std::string json);

enum class ChecksumStatus {
  kOk,       ///< field present and the document hashes to it
  kAbsent,   ///< no checksum field (legacy document) — accepted
  kMismatch  ///< field present but the bytes disagree: corrupt document
};

ChecksumStatus VerifyDocumentChecksum(const std::string& text);

// ---- Durable documents ------------------------------------------------------
//
// Every durable document is one JSON object: header fields (`format`,
// `version`, `schema_version`, document options) followed by one array of
// records, written last. Loading one ends in exactly one outcome:
//   * clean:    it parses whole, its checksum agrees (or is absent: a
//               legacy writer), its header is good and every record is;
//   * salvaged: records were lost but the header is good. Either the
//               document is torn (it does not parse whole): the header is
//               re-parsed from the bytes before the record array and every
//               record object that still closes is offered, up to the first
//               one that does not. Or a record was rejected by its parser:
//               that record is dropped and the scan goes on;
//   * cold:     nothing is trusted: the file is unreadable; or it parses
//               whole but fails its checksum (bytes changed in place, which
//               a torn tail cannot do); or its header is damaged, names
//               another format, or declares a newer schema
//               (json::RequireSupportedSchema).
// LoadDocument copies the bytes of every readable, non-clean document to
// "<path>.corrupt" before returning.

/// Describes one document format to the loader.
struct DocumentKind {
  const char* format;      ///< required value of the "format" field
  int schema;              ///< newest schema major this build reads
  const char* items;       ///< key of the record array ("pairs", ...)
  const char* load_fault;  ///< "<load_fault>.eio" is honoured on read
};

/// How a document came back. Exactly one of clean / salvaged / cold.
struct LoadOutcome {
  bool clean = false;
  bool salvaged = false;
  bool cold = false;
  /// Records on_item accepted (0 when cold).
  std::size_t items_recovered = 0;
  /// "<path>.corrupt" when the damaged bytes were kept, else "".
  std::string quarantine_path;
  /// Human-readable reason when not clean.
  std::string detail;
};

/// Format callbacks. Either throws xcv::InternalError to reject: a
/// rejected header makes the load cold, a rejected record is dropped. The
/// header callback sees the document root after its format and schema
/// have been checked (may be empty). The record callback runs once per
/// record in document order, after the header callback, and never on a
/// cold load.
using DocumentCallback = std::function<void(const json::JsonValue&)>;

/// Applies the policy to in-memory text: no I/O and no quarantine. On
/// the clean path the text is hashed once and parsed once.
LoadOutcome ParseDocument(const std::string& text, const DocumentKind& kind,
                          const DocumentCallback& on_header,
                          const DocumentCallback& on_item);

/// Reads `path` (honouring the kind's load fault point), applies
/// ParseDocument and quarantines the bytes of a non-clean document. Never
/// throws on damaged or missing input.
LoadOutcome LoadDocument(const std::string& path, const DocumentKind& kind,
                         const DocumentCallback& on_header,
                         const DocumentCallback& on_item);

}  // namespace xcv::support
