/// \file api_test.cc
/// \brief The typed protocol's contracts: lossless request/response wire
/// round trips, the total StatusCode -> structured-error mapping, version
/// negotiation, per-output pagination, Vega payloads, and the end-to-end
/// wire path (JSON in, JSON out) against a live QueryService — including
/// parse diagnostics flowing into the error payload.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/protocol.h"
#include "api/service.h"
#include "server/query_service.h"
#include "tests/test_util.h"
#include "zql/builder.h"
#include "zql/canonical.h"

namespace zv::api {
namespace {

using server::QueryService;
using server::SessionId;

zql::ZqlQuery QuickstartQuery() {
  return zql::ZqlBuilder()
      .Row("f1").Output()
      .X("year").Y("sales")
      .ZDeclare("v1", zql::ZSet::All("product"))
      .Where("location='US'")
      .Viz("bar.(y=agg('sum'))")
      .Build().ValueOrDie();
}

// ---------------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------------

TEST(ApiProtocolTest, RequestWireRoundTripIsLossless) {
  QueryRequest request;
  request.dataset = "sales";
  request.query = QuickstartQuery();
  request.optimization = zql::OptLevel::kIntraTask;
  request.page = {2, 5};
  request.include_vega = true;
  request.include_data = false;
  request.explain = true;
  request.client_tag = "panel-3";

  const std::string wire = EncodeRequest(request).Dump();
  ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(wire));
  ZV_ASSERT_OK_AND_ASSIGN(QueryRequest decoded, DecodeRequest(parsed));

  EXPECT_EQ(decoded.version, request.version);
  EXPECT_EQ(decoded.dataset, request.dataset);
  EXPECT_EQ(zql::CanonicalText(decoded.query),
            zql::CanonicalText(request.query));
  EXPECT_EQ(decoded.optimization, request.optimization);
  EXPECT_EQ(decoded.page, request.page);
  EXPECT_EQ(decoded.include_vega, true);
  EXPECT_EQ(decoded.include_data, false);
  EXPECT_EQ(decoded.explain, true);
  EXPECT_EQ(decoded.client_tag, "panel-3");
  // Byte-stable re-encode: encode(decode(wire)) == wire.
  EXPECT_EQ(EncodeRequest(decoded).Dump(), wire);
}

TEST(ApiProtocolTest, ResponseWireRoundTripIsLossless) {
  QueryResponse response;
  response.version = kProtocolVersion;
  OutputSlice slice;
  slice.name = "f1";
  slice.total = 7;
  slice.offset = 2;
  Visualization viz;
  viz.x_attr = "year";
  viz.y_attr = "sales";
  viz.slices = {{"product", Value::Str("chair")}};
  viz.constraints = "location='US'";
  viz.xs = {Value::Int(2014), Value::Int(2015), Value::Double(2016.5),
            Value::Str("n/a"), Value::Null()};
  viz.series = {{"sales", {1.5, -0.25, 1.0 / 3.0, 0.0, 9e99}}};
  slice.labels = {viz.Label()};
  slice.visuals = {viz};
  slice.vega = {"{\"mark\": \"bar\"}"};
  response.outputs = {slice};
  response.stats.sql_queries = 3;
  response.stats.cache_hits = 1;
  response.stats.total_ms = 0.125;
  response.stats.fetch_ms = 0.0625;
  response.stats.score_ms = 0.03125;
  response.fingerprint = "abc123";
  response.plan = "physical plan: opt=Inter-Task, 1 stage\n";
  response.client_tag = "panel-3";

  const std::string wire = EncodeResponse(response).Dump();
  ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(wire));
  ZV_ASSERT_OK_AND_ASSIGN(QueryResponse decoded, DecodeResponse(parsed));

  EXPECT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.outputs.size(), 1u);
  const OutputSlice& out = decoded.outputs[0];
  EXPECT_EQ(out.name, "f1");
  EXPECT_EQ(out.total, 7u);
  EXPECT_EQ(out.offset, 2u);
  EXPECT_EQ(out.labels, slice.labels);
  ASSERT_EQ(out.visuals.size(), 1u);
  EXPECT_EQ(out.visuals[0].xs, viz.xs);
  EXPECT_EQ(out.visuals[0].series, viz.series);
  EXPECT_EQ(out.visuals[0].slices, viz.slices);
  EXPECT_EQ(out.visuals[0].spec, viz.spec);
  EXPECT_EQ(out.vega, slice.vega);
  EXPECT_EQ(decoded.stats.sql_queries, 3u);
  EXPECT_EQ(decoded.stats.total_ms, 0.125);
  EXPECT_EQ(decoded.stats.fetch_ms, 0.0625);
  EXPECT_EQ(decoded.stats.score_ms, 0.03125);
  EXPECT_EQ(decoded.fingerprint, "abc123");
  EXPECT_EQ(decoded.plan, response.plan);
  // Byte-stable re-encode.
  EXPECT_EQ(EncodeResponse(decoded).Dump(), wire);
}

TEST(ApiProtocolTest, NonFiniteSeriesValuesSurviveTheWire) {
  // Strict JSON has no NaN/Inf literal: the emitter writes null, and the
  // decoder must accept it back as NaN — a response containing one bad
  // aggregate must not become undecodable.
  Visualization viz;
  viz.x_attr = "year";
  viz.y_attr = "sales";
  viz.xs = {Value::Int(2014), Value::Int(2015), Value::Int(2016)};
  viz.series = {{"sales",
                 {1.5, std::numeric_limits<double>::quiet_NaN(),
                  std::numeric_limits<double>::infinity()}}};
  const std::string wire = EncodeVisualization(viz).Dump();
  ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(wire));
  ZV_ASSERT_OK_AND_ASSIGN(Visualization decoded,
                          DecodeVisualization(parsed));
  ASSERT_EQ(decoded.series[0].ys.size(), 3u);
  EXPECT_EQ(decoded.series[0].ys[0], 1.5);
  EXPECT_TRUE(std::isnan(decoded.series[0].ys[1]));
  EXPECT_TRUE(std::isnan(decoded.series[0].ys[2]));  // Inf also -> null
}

TEST(ApiProtocolTest, MalformedRequestsAreRejected) {
  const char* bad[] = {
      "[]",                                  // not an object
      "{}",                                  // missing dataset/zql
      "{\"dataset\":\"sales\"}",             // missing zql
      "{\"dataset\":1,\"zql\":\"x\"}",       // dataset wrong type
      "{\"v\":\"one\",\"dataset\":\"sales\",\"zql\":\"*f1 | 'x' | 'y' | | | "
      "|\"}",                                // version wrong type
      "{\"dataset\":\"sales\",\"zql\":\"*f1 | 'x' | 'y' | | | |\","
      "\"opt\":\"warp9\"}",                  // unknown opt level
      "{\"dataset\":\"sales\",\"zql\":\"*f1 | 'x' | 'y' | | | |\","
      "\"page\":{\"offset\":-1}}",           // negative offset
      "{\"dataset\":\"sales\",\"zql\":\"*f1 | 'x' | 'y' | | | |\","
      "\"include_vega\":\"yes\"}",           // bool wrong type
  };
  for (const char* doc : bad) {
    ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(doc));
    EXPECT_FALSE(DecodeRequest(parsed).ok()) << doc;
  }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

TEST(ApiProtocolTest, EveryStatusCodeHasAStableWireMapping) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kParseError,   StatusCode::kNotFound,
      StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
      StatusCode::kTypeMismatch, StatusCode::kUnsupported,
      StatusCode::kInternal,     StatusCode::kCancelled,
      StatusCode::kUnavailable,
  };
  for (StatusCode code : codes) {
    const std::string name = WireErrorName(code);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(WireErrorCode(name), code) << name;
    const ErrorInfo info = ErrorFromStatus(Status(code, "boom"));
    EXPECT_EQ(info.code, code);
    EXPECT_EQ(info.message, "boom");
    EXPECT_EQ(info.retryable, code == StatusCode::kUnavailable) << name;
  }
  // Unknown wire names still decode as an error, never as success.
  EXPECT_NE(WireErrorCode("from_the_future"), StatusCode::kOk);
}

TEST(ApiProtocolTest, ParseDiagnosticsFlowIntoTheErrorPayload) {
  zql::ParseDiagnostic diag;
  Result<zql::ZqlQuery> r = zql::ParseQuery(
      "*f1 | 'year' | 'sales' | | | |\n"
      "*f2 | 'year' | ??? | | | |", &diag);
  ASSERT_FALSE(r.ok());
  const ErrorInfo info = ErrorFromStatus(r.status(), &diag);
  EXPECT_EQ(info.code, StatusCode::kParseError);
  EXPECT_EQ(info.line, 2);
  EXPECT_GT(info.column, 1);
  EXPECT_EQ(info.token, "???");
  // The same structure is recoverable from the message alone.
  const ErrorInfo from_message = ErrorFromStatus(r.status());
  EXPECT_EQ(from_message.line, 2);
  EXPECT_EQ(from_message.token, "???");

  // Row-level errors carry only "line N:" (no column) — the line still
  // survives the message-only path. A header without a name column makes
  // every row fail at row level.
  Result<zql::ZqlQuery> row_err = zql::ParseQuery("x | y\n'a' | 'b'");
  ASSERT_FALSE(row_err.ok());
  EXPECT_NE(row_err.status().message().find("line 2"), std::string::npos)
      << row_err.status().message();
  const ErrorInfo row_info = ErrorFromStatus(row_err.status());
  EXPECT_EQ(row_info.line, 2);
  EXPECT_EQ(row_info.column, 0);
}

TEST(ApiProtocolTest, VersionNegotiation) {
  ZV_ASSERT_OK_AND_ASSIGN(int same, NegotiateVersion(kProtocolVersion));
  EXPECT_EQ(same, kProtocolVersion);
  // A newer client degrades to the server's version.
  ZV_ASSERT_OK_AND_ASSIGN(int newer, NegotiateVersion(kProtocolVersion + 5));
  EXPECT_EQ(newer, kProtocolVersion);
  // A prehistoric client gets a structured refusal.
  Result<int> old = NegotiateVersion(kMinProtocolVersion - 1);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// End-to-end against a live service
// ---------------------------------------------------------------------------

class ApiServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ZV_ASSERT_OK(service_.RegisterDataset(zv::testing::MakeTinySales()));
    ZV_ASSERT_OK_AND_ASSIGN(session_, service_.CreateSession());
  }

  QueryService service_;
  SessionId session_ = 0;
};

TEST_F(ApiServiceTest, ExecutePaginatesEachOutput) {
  QueryRequest request;
  request.dataset = "sales";
  request.query = QuickstartQuery();  // 3 products in the tiny table
  request.page = {1, 1};

  const QueryResponse response =
      ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(response.ok()) << response.error.message;
  ASSERT_EQ(response.outputs.size(), 1u);
  const OutputSlice& slice = response.outputs[0];
  EXPECT_EQ(slice.total, 3u);
  EXPECT_EQ(slice.offset, 1u);
  ASSERT_EQ(slice.visuals.size(), 1u);
  EXPECT_EQ(slice.labels.size(), 1u);
  EXPECT_FALSE(response.fingerprint.empty());

  // An offset past the end yields an empty page, not an error.
  request.page = {10, 1};
  const QueryResponse past = ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past.outputs[0].visuals.size(), 0u);
  EXPECT_EQ(past.outputs[0].total, 3u);
}

TEST_F(ApiServiceTest, ExplainReturnsThePhysicalPlanWithoutExecuting) {
  QueryRequest request;
  request.dataset = "sales";
  request.query = QuickstartQuery();
  request.explain = true;
  request.client_tag = "inspector";

  const uint64_t submitted_before = service_.stats().submitted;
  const QueryResponse response =
      ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(response.ok()) << response.error.message;
  EXPECT_NE(response.plan.find("physical plan:"), std::string::npos);
  EXPECT_NE(response.plan.find("FetchOp"), std::string::npos);
  EXPECT_NE(response.plan.find("OutputOp"), std::string::npos);
  EXPECT_EQ(response.client_tag, "inspector");
  // Nothing was admitted or executed; no outputs, no stats.
  EXPECT_EQ(service_.stats().submitted, submitted_before);
  EXPECT_TRUE(response.outputs.empty());
  EXPECT_EQ(response.stats.sql_queries, 0u);

  // The per-query optimization override shapes the plan.
  request.optimization = zql::OptLevel::kNoOpt;
  const QueryResponse noopt = ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(noopt.ok());
  EXPECT_NE(noopt.plan.find("opt=NoOpt"), std::string::npos);

  // Unknown datasets still fail in the structured way.
  request.dataset = "nope";
  const QueryResponse missing = ExecuteRequest(service_, session_, request);
  EXPECT_EQ(missing.error.code, StatusCode::kNotFound);
  EXPECT_TRUE(missing.plan.empty());

  // EXPLAIN shares execution's session lifecycle: an unknown session is
  // rejected the same way Submit rejects it.
  request.dataset = "sales";
  const QueryResponse dead_session =
      ExecuteRequest(service_, server::SessionId{999999}, request);
  EXPECT_EQ(dead_session.error.code, StatusCode::kNotFound);
  EXPECT_TRUE(dead_session.plan.empty());
}

TEST_F(ApiServiceTest, VegaPayloadsRenderPerVisualization) {
  QueryRequest request;
  request.dataset = "sales";
  request.query = QuickstartQuery();
  request.include_vega = true;
  request.page = {0, 2};

  const QueryResponse response =
      ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(response.ok());
  const OutputSlice& slice = response.outputs[0];
  ASSERT_EQ(slice.vega.size(), 2u);
  for (const std::string& spec : slice.vega) {
    ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(spec));
    ASSERT_TRUE(parsed.is_object());
    EXPECT_NE(parsed.Find("$schema"), nullptr);
    EXPECT_NE(parsed.Find("mark"), nullptr);
    EXPECT_NE(parsed.Find("data"), nullptr);
  }
}

TEST_F(ApiServiceTest, IdentityOnlyResponsesSkipData) {
  QueryRequest request;
  request.dataset = "sales";
  request.query = QuickstartQuery();
  request.include_data = false;

  const QueryResponse response =
      ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.outputs[0].visuals.size(), 0u);
  EXPECT_EQ(response.outputs[0].labels.size(), 3u);
  EXPECT_EQ(response.outputs[0].total, 3u);
}

TEST_F(ApiServiceTest, StructuredErrorsFromTheServicePath) {
  // Unknown dataset -> not_found.
  QueryRequest request;
  request.dataset = "nope";
  request.query = QuickstartQuery();
  const QueryResponse nf = ExecuteRequest(service_, session_, request);
  EXPECT_EQ(nf.error.code, StatusCode::kNotFound);
  EXPECT_FALSE(nf.error.retryable);

  // Unsupported protocol version -> structured refusal, server's version.
  request.dataset = "sales";
  request.version = 0;
  const QueryResponse unsupported =
      ExecuteRequest(service_, session_, request);
  EXPECT_EQ(unsupported.error.code, StatusCode::kUnsupported);

  // Unknown session -> not_found.
  request.version = kProtocolVersion;
  const QueryResponse bad_session =
      ExecuteRequest(service_, SessionId{999999}, request);
  EXPECT_EQ(bad_session.error.code, StatusCode::kNotFound);
}

TEST_F(ApiServiceTest, WirePathSpeaksJsonBothWays) {
  const std::string request_json =
      "{\"dataset\":\"sales\",\"zql\":\"*f1 | 'year' | 'sales' | v1 <- "
      "'product'.* | location='US' | bar.(y=agg('sum')) |\","
      "\"page\":{\"limit\":1},\"include_vega\":true,\"client\":\"wire-1\"}";
  const std::string response_json =
      HandleWireRequest(service_, session_, request_json);
  ZV_ASSERT_OK_AND_ASSIGN(Json parsed, Json::Parse(response_json));
  ZV_ASSERT_OK_AND_ASSIGN(QueryResponse response, DecodeResponse(parsed));
  ASSERT_TRUE(response.ok()) << response.error.message;
  EXPECT_EQ(response.client_tag, "wire-1");
  ASSERT_EQ(response.outputs.size(), 1u);
  EXPECT_EQ(response.outputs[0].visuals.size(), 1u);
  EXPECT_EQ(response.outputs[0].vega.size(), 1u);

  // Malformed JSON comes back as a structured parse_error response.
  const std::string err_json =
      HandleWireRequest(service_, session_, "{not json");
  ZV_ASSERT_OK_AND_ASSIGN(Json err_parsed, Json::Parse(err_json));
  ZV_ASSERT_OK_AND_ASSIGN(QueryResponse err, DecodeResponse(err_parsed));
  EXPECT_EQ(err.error.code, StatusCode::kParseError);
  EXPECT_GT(err.error.line, 0);

  // A ZQL error inside valid JSON carries its diagnostics.
  const std::string zql_err_json = HandleWireRequest(
      service_, session_,
      "{\"dataset\":\"sales\",\"zql\":\"*f1 | 'year' | ??? | | | |\"}");
  ZV_ASSERT_OK_AND_ASSIGN(Json zql_parsed, Json::Parse(zql_err_json));
  ZV_ASSERT_OK_AND_ASSIGN(QueryResponse zql_err, DecodeResponse(zql_parsed));
  EXPECT_EQ(zql_err.error.code, StatusCode::kParseError);
  EXPECT_EQ(zql_err.error.line, 1);
  EXPECT_EQ(zql_err.error.token, "???");
}

TEST_F(ApiServiceTest, RepeatWireRequestsHitTheResultCache) {
  QueryRequest request;
  request.dataset = "sales";
  request.query = QuickstartQuery();
  const QueryResponse first = ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.stats.cache_hits, 0u);
  const QueryResponse second = ExecuteRequest(service_, session_, request);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.stats.cache_hits, 1u);
  EXPECT_EQ(second.fingerprint, first.fingerprint);
}

}  // namespace
}  // namespace zv::api
