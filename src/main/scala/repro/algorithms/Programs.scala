package repro.algorithms

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.diff.VertexProgram

/** Weakly connected components: undirected min-label propagation.
  * `state_i(v) = min(vid, min over neighbors state_{i-1})` — converges to
  * the minimum vertex id in each component within diameter iterations.
  */
final case class Wcc() extends VertexProgram {
  val name = "WCC"
  override val undirected = true
  def initExpr(vid: Column): Column = vid.cast("double")
  def msgExpr(srcValue: Column, weight: Column, srcDeg: Column): Column = srcValue
  val aggIsMin = true
  def applyExpr(init: Column, agg: Column): Column =
    least(init, coalesce(agg, lit(Double.PositiveInfinity)))
}

/** Breadth-first search from a fixed source: hop distances along out-edges.
  * `state_i(v)` = length of the shortest path of ≤ i edges, so values are
  * monotone per view yet can legitimately grow across views when edges are
  * deleted (the replay recomputes affected vertices in full).
  */
final case class Bfs(source: Long) extends VertexProgram {
  val name = "BFS"
  def initExpr(vid: Column): Column =
    when(vid === source, 0.0).otherwise(Double.PositiveInfinity)
  def msgExpr(srcValue: Column, weight: Column, srcDeg: Column): Column = srcValue + 1.0
  val aggIsMin = true
  def applyExpr(init: Column, agg: Column): Column =
    least(init, coalesce(agg, lit(Double.PositiveInfinity)))
}

/** Bellman-Ford single-source shortest paths (the paper's BF running
  * example, §2): `state_i(v)` = weight of the cheapest path of ≤ i edges.
  */
final case class Sssp(source: Long) extends VertexProgram {
  val name = "BF"
  def initExpr(vid: Column): Column =
    when(vid === source, 0.0).otherwise(Double.PositiveInfinity)
  def msgExpr(srcValue: Column, weight: Column, srcDeg: Column): Column = srcValue + weight
  val aggIsMin = true
  def applyExpr(init: Column, agg: Column): Column =
    least(init, coalesce(agg, lit(Double.PositiveInfinity)))
}

/** PageRank with damping 0.85, fixed iteration count, no dangling-mass
  * redistribution (matching typical DD formulations):
  * `state_i(v) = 0.15 + 0.85 Σ_{(u,v)} state_{i-1}(u)/outdeg(u)`.
  * Degree-dependent: one edge diff at u perturbs all of u's messages —
  * the canonical "unstable" program of §5.
  */
final case class PageRankProg(iters: Int = 10) extends VertexProgram {
  val name = "PR"
  override val degreeDependent = true
  override val fixedIterations = Some(iters)
  def initExpr(vid: Column): Column = lit(0.15)
  def msgExpr(srcValue: Column, weight: Column, srcDeg: Column): Column =
    srcValue * 0.85 / srcDeg.cast("double")
  val aggIsMin = false
  def applyExpr(init: Column, agg: Column): Column = lit(0.15) + coalesce(agg, lit(0.0))
}
