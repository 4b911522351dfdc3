// Regression pin for the IMCA-CORO-REF sweep (DESIGN.md §5g): every fop on
// the data path takes its path argument *by value*, so a lazy Task built
// from a temporary string stays correct when the temporary dies before the
// task is ever started. Under the old `const std::string&` signatures the
// frames below held dangling references — exactly the class of UAF the
// analyzer now fails the build for.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "fsapi/filesystem.h"
#include "gluster/client.h"
#include "gluster/server.h"
#include "net/sim_context.h"

namespace imca {
namespace {

TEST(CoroLifetime, DeferredFopOutlivesCallersTemporaries) {
  net::SimContext ctx;
  const net::NodeId server_node = ctx.fabric().add_node("server").id();
  const net::NodeId client_node = ctx.fabric().add_node("client").id();
  gluster::GlusterServer server(ctx.rpc(), server_node);
  server.start();
  gluster::GlusterClient client(ctx.rpc(), client_node,
                                gluster::GlusterTopology{{server_node}});

  // Long enough to defeat SSO: the temporary's bytes live on the heap, so
  // a dangling reference would read a freed (and below, scribbled) block.
  const std::string kPath = "/deferred/" + std::string(48, 'a');

  bool created = false;
  std::optional<sim::Task<void>> deferred;
  {
    // The call expression's temporary argument dies at the closing brace —
    // long before the lazy task starts. Each fop must have copied the path
    // into its frame at call time.
    std::string doomed = "/deferred/" + std::string(48, 'a');
    deferred.emplace(
        [](sim::Task<Expected<fsapi::OpenFile>> t, bool& ok) -> sim::Task<void> {
          auto f = co_await std::move(t);
          ok = f.has_value();
        }(client.create(doomed + ""), created));
  }
  // Encourage reuse of the freed allocation so a stale reference reads
  // garbage rather than happening to see the old bytes.
  const std::string scribble(128, 'Z');
  (void)scribble;

  ctx.run(std::move(*deferred));
  EXPECT_TRUE(created);

  // The file must exist under the exact intended name, not under whatever
  // the dead temporary's storage decayed into.
  bool visible = false;
  ctx.run([](gluster::GlusterClient& fs, std::string path,
             bool& ok) -> sim::Task<void> {
    ok = (co_await fs.stat(path)).has_value();
  }(client, kPath, visible));
  EXPECT_TRUE(visible);
}

}  // namespace
}  // namespace imca
