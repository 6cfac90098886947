package repro.diff

import java.util.Arrays
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import scala.jdk.CollectionConverters._
import Engine._
import VertexProgram.neq

/** The engine: run a program on a view by differentially maintaining a
  * stored run (§3.2.2) — the Spark analog of DD "fixing the computation
  * footprint". Advancing a collection to its next view replays the previous
  * view's run; a scratch view ([[scratch]]) replays the *edgeless* run,
  * with every edge of the view as the difference set — as in the paper,
  * where even a scratch run is a differential computation.
  *
  * Given the stored trace (per-iteration change-points), the view's edges
  * E_t, and the difference set δE, the replay recomputes, at every
  * iteration, only the vertices whose inputs can differ from the stored
  * run:
  *
  *   - `W` — vertices with a changed in-edge (dst of δE), plus, for
  *     degree-dependent programs, all out-neighbors of sources with changed
  *     degree. δE carries DD timestamp ⟨t, 0⟩, below every iteration, so W
  *     is affected at *every* iteration.
  *   - `N_out(Diff_{i-1})` — downstream of vertices whose value at the
  *     previous iteration diverged from the stored trace.
  *
  * Invariant (induction over iterations): any vertex not in the affected
  * set has exactly its stored value, so `Diff_i` doubles as the complete
  * override set of iteration i. The replay stops early once the stored
  * inputs of W are frozen (`i > L`, L = last stored change among
  * W ∪ N_in(W) ∪ src(δE)) and two consecutive iterations produced no
  * divergence (exit A), or once the new run is stationary (Converged, and
  * its local form, exit C). A fixpoint program that still changes at
  * `maxIterations` fails with an `IllegalStateException`.
  *
  * The stored trace is the driver-side [[Trace]] arrangement, broadcast
  * once per view; affected sets, divergence sets and change-points live on
  * the driver too, while E_t stays distributed. An iteration is one Spark
  * query over the cached edges with a single action (collecting |Affected|
  * rows), plus one edge query for `N_out(Diff_{i-1})` when the previous
  * iteration diverged — so its cost tracks the size of the
  * computation-footprint difference, not the trace length. This is the
  * computation sharing the paper's Table 2 / Figure 6 measure.
  */
object DifferentialRun {

  /** Schema of the one null message per affected vertex. */
  private val seedSchema =
    StructType(Seq(StructField("dst", LongType), StructField("__m", DoubleType)))

  /** Run `program` on one view from scratch: the differential run from
    * [[Engine.edgelessRun]] with δ = every edge of the view. A vertex
    * without an in-edge keeps its edgeless value and every other vertex is
    * in W, so the replay's invariant holds as is.
    */
  def scratch(spark: SparkSession, program: VertexProgram, vertices: DataFrame,
              preparedEdges: DataFrame): RunResult =
    run(spark, program, preparedEdges, preparedEdges, edgelessRun(program, vertices))

  /** Advance `prev`, the run on the previous view, to the view whose
    * prepared edges are `preparedEdges`, by the prepared difference set
    * `preparedDelta` (only its `src, dst` are read).
    */
  def run(spark: SparkSession, program: VertexProgram,
          preparedEdges: DataFrame, preparedDelta: DataFrame,
          prev: RunResult): RunResult = {

    val delta = preparedDelta.select("src", "dst").collect()
    if (delta.isEmpty) return prev.copy(log = RunLog(Nil, Exit.EmptyDelta, 0L))

    val sc = spark.sparkContext
    val stored = sc.broadcast(prev.trace)
    /** N_out(vs), sorted. */
    def nOut(vs: Array[Long]): Array[Long] =
      if (vs.isEmpty) Array.empty
      else {
        val b = sc.broadcast(vs)
        try vidSet(preparedEdges.where(isIn(b)(col("src"))).select("dst").collect().map(_.getLong(0)))
        finally b.destroy()
      }
    /** N_out(s) and the sources of the in-edges of t ∪ N_out(s), sorted,
      * from one edge query.
      */
    def outAndIn(s: Array[Long], t: Array[Long]): (Array[Long], Array[Long]) = {
      val bs = sc.broadcast(s)
      val bt = sc.broadcast(t)
      val outS = preparedEdges.where(isIn(bs)(col("src"))).select(col("dst").as("__w"))
      val inT = preparedEdges.where(isIn(bt)(col("dst")))
        .select(lit(false).as("isOut"), col("src").as("vid"))
      val rows =
        try
          (if (s.isEmpty) inT
           else outS.select(lit(true).as("isOut"), col("__w").as("vid"))
             .unionByName(inT)
             .unionByName(fresh(preparedEdges).join(outS.distinct(), col("dst") === col("__w"))
               .select(lit(false).as("isOut"), col("src").as("vid"))))
            .collect()
        finally { bs.destroy(); bt.destroy() }
      val (out, in) = rows.partition(_.getBoolean(0))
      (vidSet(out.map(_.getLong(1))), vidSet(in.map(_.getLong(1))))
    }

    // ---- perpetually-affected set W and the freeze horizon L ------------
    val deltaSrc = vidSet(delta.map(_.getLong(0)))
    val deltaDst = vidSet(delta.map(_.getLong(1)))
    // W = dst(δ), plus N_out(src(δ)) when degree-dependent.
    val (outDelta, ninW) =
      outAndIn(if (program.degreeDependent) deltaSrc else Array.empty, deltaDst)
    val w = vidSet(deltaDst ++ outDelta)
    val freezeL = prev.trace.lastChange(w ++ ninW ++ deltaSrc)

    // ---- iteration replay ----------------------------------------------
    var diverged = Map.empty[Long, Double] // Diff_{i-1}: vid → new value
    var fanout: Array[Long] = null         // N_out(Diff_{i-1}), if queried already
    var prevPrevCnt = 0L
    var prevCpCnt   = -1L
    var ldyn        = -1 // cached dynamic freeze horizon; -1 = stale
    val affectedLog = IndexedSeq.newBuilder[Array[Long]]
    val changes     = Seq.newBuilder[(Long, Int, Double)]
    val iterStats   = Seq.newBuilder[IterStat]
    var i = 0
    var work = 0L
    var exit: Option[Exit] = None
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (exit.isEmpty && i < cap) {
      i += 1
      // Examined set: W, downstream of the previous divergence, and the
      // previous divergence itself — a diverged vertex whose inputs match
      // the stored run again must be *re-examined* so its revert to the
      // stored value lands in the new trace as a change-point.
      val affected =
        if (diverged.isEmpty) w
        else {
          if (fanout == null) fanout = nOut(vidSet(diverged.keys))
          vidSet(w ++ fanout ++ diverged.keys)
        }
      fanout = null
      affectedLog += affected

      // Recompute affected vertices from their full current in-neighborhood
      // at states of iteration i-1 (stored ⊕ previous-iteration overrides).
      // One null message per affected vertex gives a vertex without
      // in-edges its apply(init, null), and makes the collect return
      // exactly one row per affected vertex.
      val ba = sc.broadcast(affected)
      val bo = sc.broadcast(diverged)
      def before(vid: Column): Column =
        coalesce(udf((v: Long) => bo.value.get(v)).apply(vid), stateAt(program, stored, i - 1)(vid))
      val msgs = preparedEdges
        .where(isIn(ba)(col("dst")))
        .select(col("dst"),
                program.msgExpr(before(col("src")), col("weight"), col("srcdeg"))
                  .cast("double").as("__m"))
      val seeds = spark.createDataFrame(affected.toSeq.map(v => Row(v, null)).asJava, seedSchema)
      val rows =
        try
          msgs.unionByName(seeds)
            .groupBy("dst").agg(program.aggColumn(col("__m")).as("__agg"))
            .select(col("dst").as("vid"),
                    program.applyExpr(program.initExpr(col("dst")).cast("double"),
                                      col("__agg")).cast("double").as("value"))
            .select(col("vid"), col("value"),
                    neq(col("value"), stateAt(program, stored, i)(col("vid"))).as("__d"),
                    neq(col("value"), before(col("vid"))).as("__c"))
            .collect()
        finally { ba.destroy(); bo.destroy() }
      work += rows.length

      val diffCur = rows.iterator.filter(_.getBoolean(2)).map(r => r.getLong(0) -> r.getDouble(1)).toMap
      val cps = rows.filter(_.getBoolean(3))
      changes ++= cps.map(r => (r.getLong(0), i, r.getDouble(1)))
      val dCnt  = diffCur.size.toLong
      val cpCnt = cps.length.toLong
      iterStats += IterStat(affected.length, dCnt, cpCnt)

      prevPrevCnt = diverged.size
      diverged = diffCur

      // Exit A — nothing diverged for two consecutive iterations and the
      // stored inputs of W are frozen: the rest of the run provably mirrors
      // the stored trace exactly.
      if (dCnt == 0 && prevPrevCnt == 0 && i >= freezeL + 1) exit = Some(Exit.A)
      // Converged — the new run is stationary and the stored trace is
      // frozen everywhere: no affected vertex changed and no stored
      // change-point lies at i or later (i > lastIter), so
      // newState_i == newState_{i-1} and every further iteration repeats
      // this one, with the divergence set Diff_i as the permanent override
      // of the stored run. At i == lastIter a stored change at i can still
      // reach an affected vertex at i + 1.
      else if (cpCnt == 0 && i > prev.lastIter) exit = Some(Exit.Converged)
      // Exit C — dynamic freeze horizon. Two consecutive stationary
      // iterations and the stored trace frozen *on the closed neighborhood
      // of the divergence region* (Diff ∪ N_out(Diff) ∪ affected ∪ their
      // in-neighbors): every later iteration repeats this one even though
      // faraway parts of the stored trace are still evolving — they mirror
      // the stored run verbatim. This is what keeps the replay cost
      // proportional to the locality of the change, not the trace length
      // (the paper's z_jk sharing argument).
      else if (cpCnt == 0 && prevCpCnt == 0) {
        if (ldyn < 0) {
          val dv = vidSet(diverged.keys)
          val (out, in) = outAndIn(dv, vidSet(affected ++ dv))
          fanout = out // N_out(Diff_i) is also the next iteration's fan-out
          ldyn = prev.trace.lastChange(affected ++ dv ++ out ++ in)
        }
        if (ldyn < i) exit = Some(Exit.C)
      }
      if (cpCnt != 0) ldyn = -1
      prevCpCnt = cpCnt
    }
    stored.destroy()

    // ---- assemble result ------------------------------------------------
    val newTrace = prev.trace.patch(affectedLog.result(), changes.result())
    if (program.fixedIterations.isEmpty && newTrace.lastIter >= program.maxIterations)
      throw new IllegalStateException(
        s"${program.name} did not converge within maxIterations = ${program.maxIterations}")
    val newFinal =
      if (diverged.isEmpty) prev.finalState
      else {
        val bf = sc.broadcast(diverged)
        try ckpt(prev.finalState.select(
          col("vid"),
          coalesce(udf((v: Long) => bf.value.get(v)).apply(col("vid")), col("value")).as("value")))
        finally bf.destroy()
      }
    RunResult(newFinal, newTrace, RunLog(iterStats.result(), exit.getOrElse(Exit.Fixed), work))
  }

  /** Distinct vids, sorted for [[isIn]]. */
  private def vidSet(vs: Iterable[Long]): Array[Long] = vs.toArray.distinct.sorted

  /** Membership of a column's vids in a broadcast [[vidSet]]. */
  private def isIn(set: Broadcast[Array[Long]])(vid: Column): Column =
    udf((v: Long) => Arrays.binarySearch(set.value, v) >= 0).apply(vid)
}
