#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/check.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/json.h"
#include "support/stopwatch.h"
#include "support/strings.h"
#include "support/table.h"
#include "support/thread_pool.h"

namespace xcv {
namespace {

TEST(Check, ThrowsOnFailure) {
  EXPECT_NO_THROW(XCV_CHECK(1 + 1 == 2));
  EXPECT_THROW(XCV_CHECK(1 + 1 == 3), InternalError);
}

TEST(Check, MessageContainsDetail) {
  try {
    XCV_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(-2.25), "-2.25");
  EXPECT_EQ(FormatDouble(1.0 / 3.0, 3), "0.333");
}

TEST(Strings, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Strings, DisplayWidthCountsCodePoints) {
  EXPECT_EQ(DisplayWidth("abc"), 3u);
  EXPECT_EQ(DisplayWidth(""), 0u);
  // "✓" is a three-byte UTF-8 sequence but one display column.
  EXPECT_EQ(DisplayWidth("✓"), 1u);
  EXPECT_EQ(DisplayWidth("✓*"), 2u);
}

TEST(Strings, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");  // never truncates
  EXPECT_EQ(PadLeft("✓", 3), "  ✓");
}

TEST(Strings, StartsWithAndToLower) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_EQ(ToLower("VWN_RPA"), "vwn_rpa");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.SetHeader({"Condition", "PBE", "LYP"});
  t.AddRow({"EC1", "✓", "✗"});
  t.AddRow({"A long condition name", "?", "−"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("Condition"), std::string::npos);
  EXPECT_NE(out.find("✓"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.NumColumns(), 3u);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t;
  t.SetHeader({"a", "b"});
  EXPECT_THROW(t.AddRow({"only one"}), InternalError);
}

TEST(TextTable, RejectsEmptyHeader) {
  TextTable t;
  EXPECT_THROW(t.SetHeader({}), InternalError);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
  EXPECT_GE(w.ElapsedMillis(), 0.0);
  w.Reset();
  EXPECT_GE(w.ElapsedSeconds(), 0.0);
}

TEST(Deadline, NeverExpiresByDefault) {
  Deadline d;
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
}

TEST(Deadline, ExpiresAfterDuration) {
  Deadline d = Deadline::After(-1.0);
  EXPECT_TRUE(d.Expired());
  Deadline future = Deadline::After(60.0);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.RemainingSeconds(), 0.0);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i)
    pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SupportsRecursiveSubmission) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  // Binary fan-out, three levels deep: 1 + 2 + 4 + 8 = 15 tasks.
  std::function<void(int)> spawn = [&](int depth) {
    counter.fetch_add(1);
    if (depth > 0)
      for (int i = 0; i < 2; ++i)
        pool.Submit([&spawn, depth] { spawn(depth - 1); });
  };
  pool.Submit([&spawn] { spawn(3); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 15);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(1);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumThreads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}


// ---- Durable-document loader ------------------------------------------------

// A small document in the shape every durable format shares: header
// fields, then one record array written last.
constexpr char kDemoBody[] = R"({
  "format": "xcv-demo",
  "version": 1,
  "schema_version": 1,
  "label": "demo",
  "records": [
    {"id": 1, "value": "a"},
    {"id": 2, "value": "b"},
    {"id": 3, "value": "c"}
  ]
}
)";

constexpr support::DocumentKind kDemoKind = {"xcv-demo", 1, "records",
                                             "demo.load"};

std::string Replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  XCV_CHECK_MSG(at != std::string::npos, "no '" << from << "' in document");
  return text.replace(at, from.size(), to);
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct DemoLoad {
  support::LoadOutcome outcome;
  std::string label;
  std::vector<int> ids;  // accepted records, in the order offered
};

/// Loads `bytes` from a fresh file. The header callback reads the label; a
/// record whose value is not a string is rejected.
DemoLoad LoadDemo(const std::string& bytes, const std::string& path) {
  WriteBytes(path, bytes);
  std::filesystem::remove(path + ".corrupt");
  DemoLoad load;
  load.outcome = support::LoadDocument(
      path, kDemoKind,
      [&](const json::JsonValue& root) {
        load.label = root.At("label").AsString();
      },
      [&](const json::JsonValue& record) {
        const int id = static_cast<int>(record.At("id").AsDouble());
        record.At("value").AsString();
        load.ids.push_back(id);
      });
  return load;
}

TEST(DocumentLoader, OutcomeTable) {
  enum Outcome { kClean, kSalvaged, kCold };
  struct Case {
    const char* name;
    std::string bytes;
    const char* fault;  // armed before the load ("" for none)
    Outcome want;
    std::vector<int> ids;
  };
  const std::string body = kDemoBody;
  const std::string stamped = support::AddDocumentChecksum(body);
  const std::string rejected =
      Replaced(body, "\"value\": \"b\"", "\"value\": 2");
  const std::vector<Case> cases = {
      {"clean", stamped, "", kClean, {1, 2, 3}},
      {"legacy, no checksum", body, "", kClean, {1, 2, 3}},
      // A flipped byte that still parses: changed in place, trust nothing.
      {"bit flip", Replaced(stamped, "\"b\"", "\"x\""), "", kCold, {}},
      {"damaged header",
       support::AddDocumentChecksum(
           Replaced(body, "\"label\": \"demo\"", "\"label\": 7")),
       "", kCold, {}},
      {"foreign format",
       support::AddDocumentChecksum(
           Replaced(body, "\"format\": \"xcv-demo\"", "\"format\": \"other\"")),
       "", kCold, {}},
      {"future schema",
       support::AddDocumentChecksum(Replaced(body, "\"schema_version\": 1",
                                             "\"schema_version\": 2")),
       "", kCold, {}},
      {"injected EIO", stamped, "demo.load.eio", kCold, {}},
      // One rejected record is dropped; its neighbours on both sides stay.
      {"rejected middle record", support::AddDocumentChecksum(rejected), "",
       kSalvaged, {1, 3}},
      // The same record rejected inside a torn document: the scan goes on.
      {"rejected record, torn", rejected.substr(0, rejected.find("\n  ]")),
       "", kSalvaged, {1, 3}},
  };
  const std::string path = testing::TempDir() + "support_demo_doc.json";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    support::fault::Disarm();
    if (*c.fault != '\0') support::fault::ArmFromSpec(c.fault);
    const DemoLoad load = LoadDemo(c.bytes, path);
    support::fault::Disarm();
    const support::LoadOutcome& r = load.outcome;
    ASSERT_EQ((r.clean ? 1 : 0) + (r.salvaged ? 1 : 0) + (r.cold ? 1 : 0), 1);
    EXPECT_EQ(r.clean, c.want == kClean) << r.detail;
    EXPECT_EQ(r.salvaged, c.want == kSalvaged) << r.detail;
    EXPECT_EQ(r.cold, c.want == kCold) << r.detail;
    EXPECT_EQ(load.ids, c.ids);
    EXPECT_EQ(r.items_recovered, c.ids.size());
    if (c.want != kCold) EXPECT_EQ(load.label, "demo");
    // Every readable, non-clean document keeps its bytes for post-mortems.
    const bool readable = *c.fault == '\0';
    if (c.want == kClean || !readable) {
      EXPECT_TRUE(r.quarantine_path.empty());
      EXPECT_FALSE(std::filesystem::exists(path + ".corrupt"));
    } else {
      EXPECT_EQ(r.quarantine_path, path + ".corrupt");
      std::ifstream q(path + ".corrupt", std::ios::binary);
      EXPECT_EQ(std::string(std::istreambuf_iterator<char>(q), {}), c.bytes);
    }
  }
  // The schema failure is named, not just reported as damage.
  const DemoLoad future = LoadDemo(cases[5].bytes, path);
  EXPECT_NE(future.outcome.detail.find("schema_version 2"), std::string::npos)
      << future.outcome.detail;
}

TEST(DocumentLoader, TruncationAtEveryByteNeverInventsARecord) {
  const std::string stamped = support::AddDocumentChecksum(kDemoBody);
  const std::string path = testing::TempDir() + "support_demo_trunc.json";
  std::size_t salvaged = 0, cold = 0;
  for (std::size_t cut = 0; cut <= stamped.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const DemoLoad load = LoadDemo(stamped.substr(0, cut), path);
    const support::LoadOutcome& r = load.outcome;
    ASSERT_EQ((r.clean ? 1 : 0) + (r.salvaged ? 1 : 0) + (r.cold ? 1 : 0), 1);
    EXPECT_EQ(r.clean, cut == stamped.size());
    salvaged += r.salvaged ? 1 : 0;
    cold += r.cold ? 1 : 0;
    // Only whole records, only from the prefix that survived, in order.
    ASSERT_LE(load.ids.size(), 3u);
    for (std::size_t i = 0; i < load.ids.size(); ++i) {
      EXPECT_EQ(load.ids[i], static_cast<int>(i) + 1);
      const std::string record = "{\"id\": " + std::to_string(i + 1);
      const std::size_t at = stamped.find(record);
      EXPECT_LE(stamped.find('}', at) + 1, cut);
    }
  }
  EXPECT_GT(salvaged, 0u);
  EXPECT_GT(cold, 0u);
}

}  // namespace
}  // namespace xcv
