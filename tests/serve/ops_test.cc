/**
 * Op-handler registry tests: the string-keyed catalog that replaced
 * the server's verb chain. Covers the catalog surface, the structured
 * unknown-op rejection (which must name the catalog), and the stats
 * `ops` listing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "serve/client.hh"
#include "serve/ops.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace dcg;
using namespace dcg::serve;

namespace {

/** One bound, running server on an ephemeral port. */
class OneServer
{
  public:
    OneServer()
    {
        ServerConfig cfg;
        cfg.host = "127.0.0.1";
        cfg.port = 0;
        cfg.workers = 1;
        server = std::make_unique<Server>(cfg);
        thread = std::thread([&srv = *server] { srv.run(); });
    }

    ~OneServer()
    {
        server->requestStop();
        thread.join();
    }

    Endpoint endpoint() const
    {
        return Endpoint{"127.0.0.1", server->port()};
    }

    /** Raw exchange on a fresh connection. */
    JsonValue exchange(const JsonValue &req)
    {
        Connection conn;
        std::string err;
        if (!conn.open(endpoint(), err))
            fatal("ops_test exchange: ", err);
        JsonValue resp;
        if (!conn.roundTrip(req, resp, err))
            fatal("ops_test exchange: ", err);
        return resp;
    }

  private:
    std::unique_ptr<Server> server;
    std::thread thread;
};

JsonValue
opRequest(const std::string &op)
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string(op));
    return req;
}

} // namespace

TEST(OpRegistry, CatalogNamesEveryVerb)
{
    const std::vector<std::string> expected = {
        "compact", "epoch",  "fetch",     "join",  "leave", "replicate",
        "result",  "ring",   "shutdown",  "stats", "status", "submit"};
    std::vector<std::string> names = opNames();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, expected);

    for (const OpInfo &info : opCatalog()) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        EXPECT_TRUE(isOp(info.name));
    }
    EXPECT_FALSE(isOp("no-such-verb"));
    EXPECT_EQ(findOp("no-such-verb"), nullptr);

    // Admin verbs are flagged as such.
    EXPECT_TRUE(findOp("shutdown")->adminOnly);
    EXPECT_TRUE(findOp("join")->adminOnly);
    EXPECT_TRUE(findOp("leave")->adminOnly);
    EXPECT_FALSE(findOp("submit")->adminOnly);
    EXPECT_FALSE(findOp("epoch")->adminOnly);
}

TEST(OpRegistry, UnknownOpNamesTheCatalog)
{
    OneServer srv;
    const JsonValue resp = srv.exchange(opRequest("frobnicate"));
    EXPECT_FALSE(resp.get("ok").asBool(true));
    EXPECT_EQ(resp.get("error").asString(), "bad_request");
    const std::string detail = resp.get("detail").asString();
    EXPECT_NE(detail.find("frobnicate"), std::string::npos) << detail;
    // The rejection lists what IS understood.
    for (const char *known : {"submit", "join", "ring", "stats"})
        EXPECT_NE(detail.find(known), std::string::npos)
            << detail << " missing " << known;
}

TEST(OpRegistry, StatsListsTheOps)
{
    OneServer srv;
    const JsonValue resp = srv.exchange(opRequest("stats"));
    ASSERT_TRUE(resp.get("ok").asBool(false)) << resp.dump();
    const JsonValue &ops = resp.get("stats").get("ops");
    ASSERT_TRUE(ops.isArray());
    EXPECT_EQ(ops.items().size(), opCatalog().size());
    bool sawJoin = false;
    for (const JsonValue &o : ops.items()) {
        EXPECT_FALSE(o.get("name").asString().empty());
        if (o.get("name").asString() == "join") {
            sawJoin = true;
            EXPECT_TRUE(o.get("admin").asBool(false));
        }
    }
    EXPECT_TRUE(sawJoin);
}
