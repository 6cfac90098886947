package repro.diff

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import VertexProgram.neq

/** Shared plumbing for the differential engine ([[DifferentialRun]]). */
object Engine {

  /** Re-alias every column (fresh exprIds). Iterative plans repeatedly
    * join frames descending from the same scan; without fresh attribute
    * ids Spark's analyzer trips over ambiguous self-join references.
    */
  def fresh(df: DataFrame): DataFrame =
    df.select(df.columns.map(c => col(c).as(c)).toSeq: _*)

  /** Eagerly materialize a frame and rebuild it from the cached RDD — the
    * only safe way to carry a frame across loop iterations here.
    *
    * `localCheckpoint` is NOT used because its `LogicalRDD` inherits the
    * origin Dataset's statistics: with iterated join plans the estimated
    * `sizeInBytes` compounds multiplicatively across iterations into
    * BigIntegers with millions of digits, and the planner then spends
    * minutes inside `SizeInBytesOnlyStatsPlanVisitor`. Rebuilding via
    * `createDataFrame(rdd, schema)` resets the leaf to default statistics,
    * keeping every iteration's plan-size estimate bounded. It also assigns
    * fresh attribute ids, avoiding self-join ambiguity.
    */
  def ckpt(df: DataFrame): DataFrame = ckptCounted(df)._1

  /** [[ckpt]] that also returns the row count (free — materialization
    * already counts), saving one action per loop iteration.
    */
  def ckptCounted(df: DataFrame): (DataFrame, Long) = {
    val rdd = df.rdd
    // RDD-level localCheckpoint truncates the lineage on materialization —
    // without it the DAGScheduler re-walks an ever-growing ancestry graph
    // on every job, so iteration latency creeps up across views.
    rdd.localCheckpoint()
    val n = rdd.count()
    (df.sparkSession.createDataFrame(rdd, df.schema), n)
  }

  /** How a run's iteration loop ended. */
  sealed trait Exit
  object Exit {
    /** Differential exit A: no divergence for two iterations past the
      * freeze horizon of W's stored inputs.
      */
    case object A extends Exit
    /** Differential exit C: stationary for two iterations, and the stored
      * trace frozen on the divergence region's closed neighborhood.
      */
    case object C extends Exit
    /** Differential run on an empty difference set: nothing to replay. */
    case object EmptyDelta extends Exit
    /** Stationary: an iteration with no change-point once the stored trace
      * is frozen, so every later iteration repeats it. A scratch view's
      * stored run is the edgeless run, so there this is the fixpoint.
      */
    case object Converged extends Exit
    /** The program's fixed iteration count was run. */
    case object Fixed extends Exit
  }

  /** One iteration's counts: vertices recomputed, vertices whose value
    * diverged from the stored run, and change-points recorded in the new
    * trace.
    */
  final case class IterStat(affected: Long, diverged: Long, changes: Long)

  /** What a run did, for the per-view record.
    *
    * @param iterStats one entry per executed iteration
    * @param exit      how the loop ended
    * @param workRows  Σ over executed iterations of the recomputed-vertex
    *                  rows the engine produced — the "computation footprint
    *                  touched", used by tests to prove sharing happens
    */
  final case class RunLog(iterStats: Seq[IterStat], exit: Exit, workRows: Long) {
    def iterations: Int = iterStats.size
  }

  /** Result of running a program on one view.
    *
    * @param finalState converged `vid, value` frame
    * @param trace      the run's per-iteration change-points, arranged on
    *                   the driver — the DD difference representation of the
    *                   iteration sequence (iteration-0 inits are implicit:
    *                   they are computable from `initExpr`)
    */
  final case class RunResult(finalState: DataFrame, trace: Trace, log: RunLog) {
    /** Largest iteration with any change (trace horizon). */
    def lastIter: Int = trace.lastIter
  }

  /** Edges prepared for a program: symmetrized when undirected (directed
    * eids e map to 2e / 2e+1 so diffs stay keyed), with a `srcdeg` column
    * when degree-dependent.
    */
  def prepare(program: VertexProgram, edges: DataFrame): DataFrame = {
    val base = keyed(program, edges, "weight")
    if (!program.degreeDependent) base.withColumn("srcdeg", lit(1L))
    else {
      val deg = base.groupBy(col("src").as("__dv")).agg(count(lit(1)).as("srcdeg"))
      base.join(deg, base("src") === deg("__dv"), "left")
        .drop("__dv")
        .withColumn("srcdeg", coalesce(col("srcdeg"), lit(1L)))
    }
  }

  /** Prepare a difference set the same way (keeps the `diff` column; no
    * degree column — diffs only seed affected sets).
    */
  def prepareDelta(program: VertexProgram, delta: DataFrame): DataFrame =
    keyed(program, delta, "weight", "diff")

  /** `eid, src, dst, cols` with eid e keyed 2e, plus the reverse copy keyed
    * 2e+1 when the program is undirected.
    */
  private def keyed(program: VertexProgram, edges: DataFrame, cols: String*): DataFrame = {
    val forward = edges.select((col("eid") * 2).as("eid") +: ("src" +: "dst" +: cols).map(col): _*)
    if (!program.undirected) forward
    else forward.unionByName(edges.select(
      (col("eid") * 2 + 1).as("eid") +: col("dst").as("src") +: col("src").as("dst") +: cols.map(col): _*))
  }

  /** The run on a view with no edges, which a scratch view replays
    * against. Every vertex holds `apply(init, null)` from iteration 1 on,
    * so the trace has a change-point at iteration 1 wherever that value
    * differs from init; one query over the vertices collects them.
    */
  def edgelessRun(program: VertexProgram, vertices: DataFrame): RunResult = {
    val init = program.initExpr(col("vid")).cast("double")
    val state = vertices.select(col("vid"),
      program.applyExpr(init, lit(null).cast("double")).cast("double").as("value"))
    val points = state.where(neq(col("value"), init)).collect()
      .map(r => (r.getLong(0), 1, r.getDouble(1)))
    RunResult(state, Trace(points), RunLog(Nil, Exit.Converged, 0L))
  }

  /** State at iteration `j` of the run whose trace is `trace`, as a column
    * over vertex ids: the latest change-point ≤ j, else init. The trace is
    * read through a broadcast, so the lookup runs no Spark job.
    */
  def stateAt(program: VertexProgram, trace: Broadcast[Trace], j: Int)(vid: Column): Column =
    coalesce(udf((v: Long) => trace.value.at(v, j)).apply(vid),
             program.initExpr(vid).cast("double"))
}
