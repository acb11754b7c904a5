#include "ssb/queries_qppt.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/query/planner.h"
#include "engine/session.h"

namespace qppt::ssb {

namespace {

using query::QueryBuilder;
using query::QuerySpec;

// ---- Q1.x ------------------------------------------------------------------
//
// select sum(lo_extendedprice * lo_discount) as revenue
// from lineorder, date where lo_orderdate = d_datekey and <date predicate>
// and lo_discount between .. and lo_quantity ..
//
// The fact side is filtered (discount range + quantity residual), so the
// planner either fuses it into the date join (select-join-group, Fig. 8)
// or materializes a separate lineorder selection, per
// knobs.use_select_join.
QuerySpec BuildSpecQ1(const std::string& id, const std::string& date_index,
                      KeyPredicate date_pred,
                      std::vector<Residual> date_residuals,
                      KeyPredicate discount_pred, Residual quantity) {
  QueryBuilder b("ssb." + id);
  b.From("lineorder")
      .FactIndex("lo_discount")
      .FactSlot("lo_sel")
      .FactColumns({"lo_orderdate", "lo_extendedprice", "lo_discount"})
      .Where(discount_pred)
      .Filter(std::move(quantity));
  auto date = b.Dim("date").Select(date_index, date_pred);
  for (Residual& r : date_residuals) date.Filter(std::move(r));
  date.Key("d_datekey").ProbeFrom("lo_orderdate").Carry({"d_year"});
  b.GroupBy({"d_year"})
      .Aggregate(AggFn::kSum,
                 ScalarExpr::Mul("lo_extendedprice", "lo_discount"),
                 "revenue");
  return std::move(b).Build();
}

// ---- Q2.x ------------------------------------------------------------------
//
// select sum(lo_revenue), d_year, p_brand1 from lineorder, date, part,
// supplier where joins and <part predicate> and s_region = R
// group by d_year, p_brand1 order by d_year, p_brand1
//
// The Fig. 5 shape: part is the star-join main, supplier assists, and
// the date dimension is deferred into a second join-group against the
// d_datekey base index. The composed (d_year, p_brand1) group key lands
// in a prefix tree, so the ORDER BY is free.
QuerySpec BuildSpecQ2(const std::string& id, const std::string& part_index,
                      KeyPredicate part_pred, int64_t region_code) {
  QueryBuilder b("ssb." + id);
  b.From("lineorder")
      .FactIndex("lo_partkey")
      .FactColumns({"lo_suppkey", "lo_orderdate", "lo_revenue"});
  b.Dim("part")
      .Select(part_index, part_pred)
      .Key("p_partkey")
      .ProbeFrom("lo_partkey")
      .Carry({"p_brand1"});
  b.Dim("supp")
      .Select("s_region", KeyPredicate::Point(region_code))
      .Key("s_suppkey")
      .ProbeFrom("lo_suppkey");
  b.Dim("date")
      .Probe("d_datekey")
      .ProbeFrom("lo_orderdate")
      .Carry({"d_year"})
      .Defer();
  b.GroupBy({"d_year", "p_brand1"})
      .Aggregate(AggFn::kSum, ScalarExpr::Column("lo_revenue"), "revenue")
      .OrderBy("d_year")
      .OrderBy("p_brand1");
  return std::move(b).Build();
}

// ---- Q3.x ------------------------------------------------------------------
//
// select c_X, s_X, d_year, sum(lo_revenue) as revenue from customer,
// lineorder, supplier, date where joins and <customer/supplier/date
// predicates> group by c_X, s_X, d_year order by d_year asc, revenue desc
//
// One composed multi-way join (customer main, supplier and date assists)
// aggregating on the composed (c_X, s_X, d_year) key; the
// revenue-descending ORDER BY is the one ordering the output index
// cannot provide, so the planner attaches a post-sort.
struct Q3Dims {
  std::string c_index, c_attr;
  KeyPredicate c_pred;
  std::string s_index, s_attr;
  KeyPredicate s_pred;
  std::string d_index;
  KeyPredicate d_pred;
};

QuerySpec BuildSpecQ3(const std::string& id, const Q3Dims& q) {
  QueryBuilder b("ssb." + id);
  b.From("lineorder")
      .FactIndex("lo_custkey")
      .FactColumns({"lo_suppkey", "lo_orderdate", "lo_revenue"});
  b.Dim("cust")
      .Select(q.c_index, q.c_pred)
      .Key("c_custkey")
      .ProbeFrom("lo_custkey")
      .Carry({q.c_attr});
  b.Dim("supp")
      .Select(q.s_index, q.s_pred)
      .Key("s_suppkey")
      .ProbeFrom("lo_suppkey")
      .Carry({q.s_attr});
  b.Dim("date")
      .Select(q.d_index, q.d_pred)
      .Key("d_datekey")
      .ProbeFrom("lo_orderdate")
      .Carry({"d_year"});
  b.GroupBy({q.c_attr, q.s_attr, "d_year"})
      .Aggregate(AggFn::kSum, ScalarExpr::Column("lo_revenue"), "revenue")
      .OrderBy("d_year")
      .OrderByDesc("revenue");
  return std::move(b).Build();
}

// ---- Q4.x ------------------------------------------------------------------
//
// select d_year, <dims>, sum(lo_revenue - lo_supplycost) as profit from
// all five tables. The widest star of the flight: customer main plus
// supplier/part/date composed in as knobs.max_join_ways allows — the
// Fig. 9 experiment falls out of the planner's arity rule.
void Q4FactSide(QueryBuilder* b) {
  b->From("lineorder")
      .FactIndex("lo_custkey")
      .FactColumns({"lo_suppkey", "lo_partkey", "lo_orderdate", "lo_revenue",
                    "lo_supplycost"});
}

void Q4Profit(QueryBuilder* b, std::vector<std::string> group_by) {
  b->GroupBy(std::move(group_by))
      .Aggregate(AggFn::kSum, ScalarExpr::Sub("lo_revenue", "lo_supplycost"),
                 "profit");
}

QuerySpec BuildSpecQ41(const SsbData& data) {
  QueryBuilder b("ssb.4.1");
  Q4FactSide(&b);
  b.Dim("cust")
      .Select("c_region", KeyPredicate::Point(data.RegionCode("AMERICA")))
      .Key("c_custkey")
      .ProbeFrom("lo_custkey")
      .Carry({"c_nation"});
  b.Dim("supp")
      .Select("s_region", KeyPredicate::Point(data.RegionCode("AMERICA")))
      .Key("s_suppkey")
      .ProbeFrom("lo_suppkey");
  b.Dim("part")
      .Select("p_mfgr", KeyPredicate::In({data.MfgrCode("MFGR#1"),
                                          data.MfgrCode("MFGR#2")}))
      .Key("p_partkey")
      .ProbeFrom("lo_partkey");
  b.Dim("date").Probe("d_datekey").ProbeFrom("lo_orderdate").Carry(
      {"d_year"});
  Q4Profit(&b, {"d_year", "c_nation"});
  b.OrderBy("d_year").OrderBy("c_nation");
  return std::move(b).Build();
}

QuerySpec BuildSpecQ42(const SsbData& data) {
  QueryBuilder b("ssb.4.2");
  Q4FactSide(&b);
  b.Dim("cust")
      .Select("c_region", KeyPredicate::Point(data.RegionCode("AMERICA")))
      .Key("c_custkey")
      .ProbeFrom("lo_custkey");
  b.Dim("supp")
      .Select("s_region", KeyPredicate::Point(data.RegionCode("AMERICA")))
      .Key("s_suppkey")
      .ProbeFrom("lo_suppkey")
      .Carry({"s_nation"});
  b.Dim("part")
      .Select("p_mfgr", KeyPredicate::In({data.MfgrCode("MFGR#1"),
                                          data.MfgrCode("MFGR#2")}))
      .Key("p_partkey")
      .ProbeFrom("lo_partkey")
      .Carry({"p_category"});
  b.Dim("date")
      .Select("d_year", KeyPredicate::Range(1997, 1998))
      .Key("d_datekey")
      .ProbeFrom("lo_orderdate")
      .Carry({"d_year"});
  Q4Profit(&b, {"d_year", "s_nation", "p_category"});
  b.OrderBy("d_year").OrderBy("s_nation").OrderBy("p_category");
  return std::move(b).Build();
}

QuerySpec BuildSpecQ43(const SsbData& data) {
  QueryBuilder b("ssb.4.3");
  Q4FactSide(&b);
  b.Dim("cust")
      .Select("c_region", KeyPredicate::Point(data.RegionCode("AMERICA")))
      .Key("c_custkey")
      .ProbeFrom("lo_custkey");
  b.Dim("supp")
      .Select("s_nation",
              KeyPredicate::Point(data.NationCode("UNITED STATES")))
      .Key("s_suppkey")
      .ProbeFrom("lo_suppkey")
      .Carry({"s_city"});
  b.Dim("part")
      .Select("p_category", KeyPredicate::Point(data.CategoryCode("MFGR#14")))
      .Key("p_partkey")
      .ProbeFrom("lo_partkey")
      .Carry({"p_brand1"});
  b.Dim("date")
      .Select("d_year", KeyPredicate::Range(1997, 1998))
      .Key("d_datekey")
      .ProbeFrom("lo_orderdate")
      .Carry({"d_year"});
  Q4Profit(&b, {"d_year", "s_city", "p_brand1"});
  b.OrderBy("d_year").OrderBy("s_city").OrderBy("p_brand1");
  return std::move(b).Build();
}

}  // namespace

const std::vector<std::string>& AllQueryIds() {
  static const std::vector<std::string> kIds = {
      "1.1", "1.2", "1.3", "2.1", "2.2", "2.3", "3.1",
      "3.2", "3.3", "3.4", "4.1", "4.2", "4.3"};
  return kIds;
}

Result<query::QuerySpec> BuildQuerySpec(const SsbData& data,
                                        const std::string& query_id) {
  if (query_id == "1.1") {
    return BuildSpecQ1("1.1", "d_year", KeyPredicate::Point(1993), {},
                       KeyPredicate::Range(1, 3),
                       Residual::Lt("lo_quantity", 25));
  }
  if (query_id == "1.2") {
    return BuildSpecQ1("1.2", "d_yearmonthnum", KeyPredicate::Point(199401),
                       {}, KeyPredicate::Range(4, 6),
                       Residual::Between("lo_quantity", 26, 35));
  }
  if (query_id == "1.3") {
    return BuildSpecQ1("1.3", "d_year", KeyPredicate::Point(1994),
                       {Residual::Eq("d_weeknuminyear", 6)},
                       KeyPredicate::Range(5, 7),
                       Residual::Between("lo_quantity", 26, 35));
  }
  if (query_id == "2.1") {
    return BuildSpecQ2("2.1", "p_category",
                       KeyPredicate::Point(data.CategoryCode("MFGR#12")),
                       data.RegionCode("AMERICA"));
  }
  if (query_id == "2.2") {
    return BuildSpecQ2("2.2", "p_brand1",
                       KeyPredicate::Range(data.BrandCode("MFGR#2221"),
                                           data.BrandCode("MFGR#2228")),
                       data.RegionCode("ASIA"));
  }
  if (query_id == "2.3") {
    return BuildSpecQ2("2.3", "p_brand1",
                       KeyPredicate::Point(data.BrandCode("MFGR#2221")),
                       data.RegionCode("EUROPE"));
  }
  if (query_id[0] == '3') {
    Q3Dims q;
    q.d_index = "d_year";
    q.d_pred = KeyPredicate::Range(1992, 1997);
    if (query_id == "3.1") {
      q.c_index = "c_region";
      q.c_attr = "c_nation";
      q.c_pred = KeyPredicate::Point(data.RegionCode("ASIA"));
      q.s_index = "s_region";
      q.s_attr = "s_nation";
      q.s_pred = KeyPredicate::Point(data.RegionCode("ASIA"));
      return BuildSpecQ3("3.1", q);
    }
    if (query_id == "3.2") {
      q.c_index = "c_nation";
      q.c_attr = "c_city";
      q.c_pred = KeyPredicate::Point(data.NationCode("UNITED STATES"));
      q.s_index = "s_nation";
      q.s_attr = "s_city";
      q.s_pred = KeyPredicate::Point(data.NationCode("UNITED STATES"));
      return BuildSpecQ3("3.2", q);
    }
    // Q3.3 / Q3.4: the UNITED KI1/KI5 city pair on both sides.
    std::vector<int64_t> cities = {data.CityCode("UNITED KI1"),
                                   data.CityCode("UNITED KI5")};
    q.c_index = "c_city";
    q.c_attr = "c_city";
    q.c_pred = KeyPredicate::In(cities);
    q.s_index = "s_city";
    q.s_attr = "s_city";
    q.s_pred = KeyPredicate::In(cities);
    if (query_id == "3.3") return BuildSpecQ3("3.3", q);
    if (query_id == "3.4") {
      q.d_index = "d_yearmonthnum";
      q.d_pred = KeyPredicate::Point(199712);  // 'Dec1997'
      return BuildSpecQ3("3.4", q);
    }
  }
  if (query_id == "4.1") return BuildSpecQ41(data);
  if (query_id == "4.2") return BuildSpecQ42(data);
  if (query_id == "4.3") return BuildSpecQ43(data);
  return Status::InvalidArgument("unknown SSB query id '" + query_id + "'");
}

Result<Plan> BuildQpptPlan(const SsbData& data, const std::string& query_id,
                           const PlanKnobs& knobs) {
  QPPT_ASSIGN_OR_RETURN(query::QuerySpec spec,
                        BuildQuerySpec(data, query_id));
  return query::PlanQuery(data.db, spec, knobs);
}

Result<QueryResult> RunQppt(const SsbData& data, const std::string& query_id,
                            const PlanKnobs& knobs, PlanStats* stats) {
  // Clear defensively: a stats object reused across runs would otherwise
  // accumulate operator rows (PlanStats contract, core/stats.h).
  if (stats != nullptr) stats->Clear();
  Timer wall;
  QPPT_ASSIGN_OR_RETURN(Plan plan, BuildQpptPlan(data, query_id, knobs));
  ExecContext ctx(&data.db, knobs);
  QPPT_ASSIGN_OR_RETURN(QueryResult result, plan.Execute(&ctx));
  if (stats != nullptr) {
    *stats = *ctx.stats();
    stats->wall_ms = wall.ElapsedMs();
  }
  return result;
}

Result<QueryResult> RunQppt(engine::EngineRunner& engine, const SsbData& data,
                            const std::string& query_id,
                            const PlanKnobs& knobs, PlanStats* stats) {
  Timer wall;
  QPPT_ASSIGN_OR_RETURN(Plan plan, BuildQpptPlan(data, query_id, knobs));
  QPPT_ASSIGN_OR_RETURN(QueryResult result,
                        engine.Execute(data.db, plan, knobs, stats));
  if (stats != nullptr) stats->wall_ms = wall.ElapsedMs();
  return result;
}

}  // namespace qppt::ssb
