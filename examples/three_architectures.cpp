// All three integration architectures of the paper's §2 side by side — WfMS,
// enhanced SQL UDTF, enhanced Java UDTF — plus the PSM stored-procedure
// escape hatch, on the same federated function. Shows that the SAME mapping
// spec produces the same answers everywhere while the cost profile and the
// expressiveness limits differ per architecture.
#include <cstdio>

#include "federation/sample_scenario.h"
#include "federation/sql_source.h"
#include "federation/udtf_coupling.h"

using namespace fedflow;
using federation::Architecture;

namespace {

void ShowCall(federation::IntegrationServer* server, const char* what) {
  // Warm up, then show one hot timed call.
  (void)server->CallFederated("GetNoSuppComp", {Value::Varchar("Stark"),
                                                Value::Varchar("brakepad")});
  auto timed = server->CallFederated(
      "GetNoSuppComp", {Value::Varchar("Stark"), Value::Varchar("brakepad")});
  if (!timed.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, timed.status().ToString().c_str());
    return;
  }
  std::printf("--- %s ---\n", what);
  std::printf("result: stock-keeping number %s, elapsed %lld us (hot)\n",
              timed->table.rows()[0][0].ToString().c_str(),
              static_cast<long long>(timed->elapsed_us));
  std::printf("%s\n", timed->breakdown.ToString().c_str());
}

}  // namespace

int main() {
  std::printf("Federated function GetNoSuppComp(SupplierName, CompName):\n"
              "GetSupplierNo + GetCompNo feeding GetNumber — the paper's\n"
              "Fig. 6 anchor — executed under all three architectures.\n\n");

  for (auto [arch, label] :
       {std::pair{Architecture::kWfms, "WfMS architecture"},
        std::pair{Architecture::kUdtf, "enhanced SQL UDTF architecture"},
        std::pair{Architecture::kJavaUdtf,
                  "enhanced Java UDTF architecture (procedural)"}}) {
    auto server = federation::MakeSampleServer(arch);
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    ShowCall(server->get(), label);
  }

  // The cyclic case across the architectures that can express it.
  std::printf("=== The cyclic case (AllCompNames, do-until loop) ===\n");
  auto wfms = federation::MakeSampleServer(Architecture::kWfms);
  auto java = federation::MakeSampleServer(Architecture::kJavaUdtf);
  auto sql = federation::MakeSampleServer(Architecture::kUdtf);
  if (wfms.ok()) {
    auto r = (*wfms)->CallFederated("AllCompNames", {Value::Int(3)});
    std::printf("WfMS (block with exit condition):  %s\n",
                r.ok() ? "ok, 3 rows" : r.status().ToString().c_str());
  }
  if (java.ok()) {
    auto r = (*java)->CallFederated("AllCompNames", {Value::Int(3)});
    std::printf("Java UDTF (client-side do-until):  %s\n",
                r.ok() ? "ok, 3 rows" : r.status().ToString().c_str());
  }
  if (sql.ok()) {
    auto r = (*sql)->CallFederated("AllCompNames", {Value::Int(3)});
    std::printf("SQL UDTF:                          %s\n",
                r.ok() ? "unexpectedly ok?!"
                       : "rejected (no loop in one SQL statement)");
  }

  // PSM: the in-DBMS loop mechanism — works, but CALL-only.
  std::printf("\n=== PSM stored procedure (CALL-only) ===\n");
  if (sql.ok()) {
    // Access the coupling directly to register the PSM variant in the
    // server's FDBS; CALL then runs in the server's Query flow.
    federation::UdtfCoupling udtf(&(*sql)->database(), &(*sql)->systems(),
                                  &(*sql)->model());
    auto psm_sql = udtf.CompilePsmSql(federation::AllCompNamesSpec());
    if (psm_sql.ok()) {
      std::printf("%s\n\n", psm_sql->c_str());
    }
    if (udtf.RegisterPsmProcedure(federation::AllCompNamesSpec()).ok()) {
      auto via_call = (*sql)->Query("CALL AllCompNames(3)");
      std::printf("CALL AllCompNames(3): %s\n",
                  via_call.ok()
                      ? (std::to_string(via_call->num_rows()) + " rows").c_str()
                      : via_call.status().ToString().c_str());
      auto in_from = (*sql)->Query(
          "SELECT * FROM TABLE (AllCompNames(3)) AS A");
      std::printf("...but in a FROM clause: %s\n",
                  in_from.ok() ? "unexpectedly ok?!"
                               : in_from.status().ToString().c_str());
    }
  }

  // Remote SQL sources: the FDBS federates SQL data next to the functions.
  std::printf("\n=== Remote SQL source next to federated functions ===\n");
  if (sql.ok()) {
    sim::LatencyModel model;
    federation::RemoteSqlSource warehouse("warehouse", &model);
    (void)warehouse.database().Execute(
        "CREATE TABLE shelf (name VARCHAR, qty INT)");
    (void)warehouse.database().Execute(
        "INSERT INTO shelf VALUES ('Stark', 4), ('Acme', 11), ('Duff', 2)");
    (void)warehouse.AttachTable(&(*sql)->database(), "shelf", "shelf");
    auto r = (*sql)->Query(
        "SELECT S.name, S.qty, Q.Qual FROM shelf AS S, "
        "TABLE (GetSuppQual(S.name)) AS Q "
        "WHERE Q.Qual >= 5 ORDER BY Q.Qual DESC");
    if (r.ok()) std::printf("%s", r->ToString().c_str());
  }
  return 0;
}
