/**
 * @file
 * The file envelope (util/envelope.hpp) and the two formats sealed in it.
 *
 * The golden files under tests/data were written by an earlier build: a
 * shard records file (`stellar_cli dse --dim 3 --max-hop 1 --max-coeff 1
 * --analytic-top-k 4 --topk 4 --max-pes 12 --shard 1/2 --emit-records`)
 * and the design-memo snapshot of a served session that ran one
 * `{"command":"dse","dim":2,"topk":3,"max_hop":1}` request. Parsing and
 * re-serializing each must give the same bytes, so any change to either
 * format shows up here first.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "accel/dse.hpp"
#include "accel/records.hpp"
#include "serve/snapshot.hpp"
#include "util/envelope.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"
#include "util/memo.hpp"

#include "temp_path.hpp"

namespace stellar
{
namespace
{

namespace envelope = util::envelope;
namespace json = util::json;

constexpr envelope::Format kTestFormat{"test envelope", "stellar-test", 3,
                                       "body", json::Value::Kind::Object};

std::string
golden(const std::string &name)
{
    auto text = envelope::readFile(std::string(STELLAR_TEST_DATA_DIR) + "/" +
                                   name);
    EXPECT_TRUE(text.has_value()) << "missing golden file " << name;
    return text.value_or("");
}

/** Expect `fn` to throw a classified failure; returns its message. */
template <typename Fn>
std::string
classifiedMessage(Fn &&fn)
{
    try {
        fn();
    } catch (...) {
        auto failure = util::classifyException(std::current_exception());
        EXPECT_NE(failure.kind, util::FailureKind::Unknown)
                << failure.message;
        return failure.message;
    }
    ADD_FAILURE() << "accepted silently";
    return "";
}

} // namespace

TEST(Envelope, SealThenOpenHandsBackThePayload)
{
    std::string payload = "{\"a\":1,\"b\":[2,3]}";
    std::string text = envelope::seal(kTestFormat, payload);
    EXPECT_EQ(text, "{\"version\":3,\"kind\":\"stellar-test\","
                    "\"checksum\":\"" +
                            envelope::checksumHex(util::fnv1a(payload)) +
                            "\",\"body\":" + payload + "}");
    json::Value body = envelope::open(kTestFormat, text);
    EXPECT_EQ(json::serialize(body), payload);
}

TEST(Envelope, ChecksumHexIsSixteenLowercaseDigits)
{
    EXPECT_EQ(envelope::checksumHex(0), "0000000000000000");
    EXPECT_EQ(envelope::checksumHex(0xABCull), "0000000000000abc");
    EXPECT_EQ(envelope::checksumHex(~0ull), "ffffffffffffffff");
}

TEST(Envelope, OpenRejectsEachBrokenGateClassified)
{
    std::string text = envelope::seal(kTestFormat, "{\"a\":1}");
    for (auto mode : envelope::kCorruptions) {
        std::string damaged = envelope::corrupt(text, mode, "body");
        ASSERT_NE(damaged, text) << int(mode);
        std::string message = classifiedMessage(
                [&] { envelope::open(kTestFormat, damaged); });
        EXPECT_NE(message.find("test envelope: "), std::string::npos)
                << message;
    }
    auto other = kTestFormat;
    other.kind = "stellar-other";
    EXPECT_NE(classifiedMessage([&] { envelope::open(other, text); })
                      .find("not a stellar-other file"),
              std::string::npos);
    other = kTestFormat;
    other.version = 4;
    EXPECT_NE(classifiedMessage([&] { envelope::open(other, text); })
                      .find("unsupported version 3 (this build reads "
                            "version 4)"),
              std::string::npos);
    other = kTestFormat;
    other.payloadKind = json::Value::Kind::Array;
    EXPECT_NE(classifiedMessage([&] { envelope::open(other, text); })
                      .find("'body' must be an array"),
              std::string::npos);
}

TEST(Envelope, ReadMatrixRangeChecksBeforeNarrowing)
{
    IntMatrix matrix = {{1, 0}, {0, -1}};
    std::string fields = envelope::matrixFields(matrix);
    EXPECT_EQ(fields, "\"rows\":2,\"cols\":2,\"matrix\":[1,0,0,-1]");
    EXPECT_EQ(envelope::readMatrix(json::parse("{" + fields + "}"), "test",
                                   4),
              matrix);

    for (const char *bad :
         {"{\"rows\":4294967298,\"cols\":2,\"matrix\":[1,0,0,-1]}",
          "{\"rows\":0,\"cols\":2,\"matrix\":[]}",
          "{\"rows\":5,\"cols\":1,\"matrix\":[1,2,3,4,5]}",
          "{\"rows\":2,\"cols\":2,\"matrix\":[1,0,0]}",
          "{\"rows\":2,\"cols\":2,\"matrix\":[1,0,0,0.5]}"}) {
        std::string message = classifiedMessage(
                [&] { envelope::readMatrix(json::parse(bad), "test", 4); });
        EXPECT_NE(message.find("test: "), std::string::npos)
                << bad << ": " << message;
    }
}

TEST(Envelope, RecordsGoldenFileReserializesByteIdentical)
{
    std::string text = golden("golden_shard_1of2.records");
    auto shard = accel::parseShardRecords(text);
    EXPECT_EQ(shard.range.shardIndex, 1);
    EXPECT_EQ(shard.range.shardCount, 2);
    EXPECT_FALSE(shard.records.empty());
    EXPECT_EQ(accel::serializeShardRecords(shard), text);
}

TEST(Envelope, SnapshotGoldenFileReserializesByteIdentical)
{
    std::string text = golden("golden_memo.snapshot");
    accel::DesignPointMemo memo;
    EXPECT_GT(serve::loadSnapshot(memo, text), 0u);
    EXPECT_EQ(serve::serializeSnapshot(memo), text);
}

TEST(Envelope, AtomicWriteOverADirectoryThrowsAndLeavesNoTemp)
{
    test_util::TempDir scratch("stellar_envelope_test");
    auto occupied = scratch.path() / "occupied";
    std::filesystem::create_directory(occupied);
    const std::string path = occupied.string();

    classifiedMessage(
            [&] { envelope::writeFileAtomic(path, "text", "test"); });
    classifiedMessage([&] {
        accel::saveShardRecordsFile(
                accel::parseShardRecords(golden("golden_shard_1of2.records")),
                path);
    });
    accel::DesignPointMemo memo;
    serve::loadSnapshot(memo, golden("golden_memo.snapshot"));
    classifiedMessage([&] { serve::saveSnapshotFile(memo, path); });

    EXPECT_TRUE(std::filesystem::is_directory(occupied));
    for (const auto &entry :
         std::filesystem::directory_iterator(scratch.path()))
        EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();

    // A plain path is written whole, and read back by readFile.
    std::string file = (scratch.path() / "file.txt").string();
    envelope::writeFileAtomic(file, "whole", "test");
    EXPECT_EQ(envelope::readFile(file), "whole");
    EXPECT_FALSE(envelope::readFile(file + ".tmp").has_value());
}

} // namespace stellar
