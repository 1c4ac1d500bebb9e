// JSON (de)serialization of campaign state: checkpoint/resume for whole
// verification matrices, and the `xcv --format=json` output document.
//
// The format is plain JSON with two conventions chosen for exact resume:
//   * doubles print as %.17g, which round-trips every finite binary64;
//   * non-finite values print as the strings "inf"/"-inf"/"nan" (JSON has
//     no literals for them); readers accept numbers or those strings.
// No external JSON dependency: the writer and the small recursive-descent
// reader live in serialize.cpp.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "support/io.h"

namespace xcv::campaign {

struct Checkpoint {
  CampaignOptions options;
  std::vector<PairState> pairs;
  bool cancelled = false;
};

/// Serializes a full campaign state (options + per-pair reports and open
/// frontiers) as a pretty-printed JSON document.
std::string CheckpointToJson(const CampaignOptions& options,
                             const std::vector<PairState>& pairs,
                             bool cancelled);

/// Parses a document produced by CheckpointToJson (with or without a
/// file checksum). Throws xcv::InternalError unless the document loads
/// clean under support::ParseDocument.
Checkpoint CheckpointFromJson(const std::string& json);

/// Writes durably and atomically: temp file + fsync + rename + directory
/// fsync (support/io.h), with a whole-document checksum inserted after the
/// version field. A crash at any instant leaves either the complete old
/// checkpoint or the complete new one. Honours the "checkpoint.save.*"
/// fault points. Throws xcv::InternalError on I/O error.
void WriteCheckpointFile(const std::string& path,
                         const CampaignOptions& options,
                         const std::vector<PairState>& pairs,
                         bool cancelled);

/// Reads and parses a checkpoint file. Throws xcv::InternalError if the
/// file is unreadable, malformed, or fails its checksum (documents without
/// a checksum — legacy writers — are accepted). Writes nothing.
Checkpoint LoadCheckpointFile(const std::string& path);

/// A tolerant checkpoint load: the support::LoadDocument outcome (clean /
/// salvaged / cold, records = pairs) plus what was recovered. A salvaged
/// checkpoint holds the options header and the intact pairs; a cold one is
/// empty.
struct CheckpointLoadResult : support::LoadOutcome {
  Checkpoint checkpoint;
};

/// Loads `path` through support::LoadDocument: never throws on damaged
/// input, honours "checkpoint.load.eio". Used by `xcv resume`, the elastic
/// coordinator and xcvd.
CheckpointLoadResult LoadCheckpointFileTolerant(const std::string& path);

// ---- Building blocks (shared with the CLI's json/csv output) ---------------

/// %.17g for finite values; "inf"/"-inf"/"nan" (quoted) otherwise.
std::string JsonDouble(double v);
std::string JsonEscape(const std::string& s);

std::string VerdictToken(verifier::Verdict verdict);
verifier::Verdict VerdictFromToken(const std::string& token);
std::string FrontierToken(verifier::FrontierStrategy strategy);
verifier::FrontierStrategy FrontierFromToken(const std::string& token);

}  // namespace xcv::campaign
