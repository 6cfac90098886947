package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.views.ViewCollection
import Engine._

/** Analytics Computation Executor for view collections (§3.2.2 + §5).
  *
  * Iterates over the collection's ordered views, maintains the current
  * edge set E_t by applying difference sets, and runs the analytic on each
  * view either differentially (against the previous view's state) or from
  * scratch, according to the execution mode. Adaptive mode delegates the
  * choice to [[SplittingOptimizer]]; a scratch run replaces the stored
  * state, which is exactly a collection split. The same loop drives vertex
  * programs ([[run]]) and SCC (`repro.algorithms.Scc.runCollection`). For
  * a vertex program both modes are [[DifferentialRun]]: a scratch view
  * advances the edgeless run by every edge of the view.
  */
object CollectionExecutor {

  sealed trait Mode
  /** Bootstrap view 0 from scratch, everything else differentially. */
  case object DiffOnly extends Mode
  /** Every view from scratch (still sharing across iterations). */
  case object ScratchOnly extends Mode
  /** §5 adaptive splitting, deciding per batch of ℓ views. */
  final case class Adaptive(batch: Int = 1) extends Mode

  /** Per-view execution record. `millis` times only the scratch or
    * differential call, not the per-view upkeep. `log` is a vertex
    * program's [[Engine.RunLog]] (per-iteration counts and the exit taken);
    * None for SCC, whose `iterations` and `workRows` read 0.
    */
  final case class ViewStat(t: Int, viewName: String, ranDiff: Boolean,
                            millis: Long, viewEdges: Long, deltaEdges: Long,
                            log: Option[RunLog]) {
    def iterations: Int = log.fold(0)(_.iterations)
    def workRows: Long = log.fold(0L)(_.workRows)
  }

  /** Result: per-view stats and, if requested via `keepResults`, the final
    * per-vertex state of each view (collected to the driver as
    * vid → value maps — tests only; benches leave it off).
    */
  final case class CollectionRun(stats: Seq[ViewStat],
                                 results: Seq[Map[Long, Double]]) {
    def totalMillis: Long = stats.map(_.millis).sum
  }

  /** One analytic as [[drive]] runs it, view by view.
    *
    * @tparam I per-view input, built untimed from E_t and δ
    * @tparam S state carried from one view to the next
    * @tparam R a view's result collected to the driver
    */
  private[repro] trait Step[I, S, R] {
    /** Input for a view from E_t (canonical, checkpointed) and δ. */
    def input(edges: DataFrame, delta: DataFrame): I
    def scratch(in: I): S
    def advance(prev: S, in: I): S
    /** A vertex program's record of a view's run. */
    def log(state: S): Option[RunLog]
    def result(state: S): R
  }

  def run(spark: SparkSession, program: VertexProgram, vertices: DataFrame,
          collection: ViewCollection, mode: Mode,
          keepResults: Boolean = false): CollectionRun = {
    val verts = ckpt(vertices)
    val (stats, results) = drive(collection, mode, keepResults,
      new Step[(DataFrame, DataFrame), RunResult, Map[Long, Double]] {
        def input(edges: DataFrame, delta: DataFrame) =
          (ckpt(prepare(program, edges)), prepareDelta(program, delta))
        def scratch(in: (DataFrame, DataFrame)) =
          DifferentialRun.scratch(spark, program, verts, in._1)
        def advance(prev: RunResult, in: (DataFrame, DataFrame)) =
          DifferentialRun.run(spark, program, in._1, in._2, prev)
        def log(state: RunResult) = Some(state.log)
        def result(state: RunResult) =
          state.finalState.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      })
    CollectionRun(stats, results)
  }

  /** The outer loop over a collection's views, shared by every analytic. */
  private[repro] def drive[I, S, R](collection: ViewCollection, mode: Mode,
                                    keepResults: Boolean,
                                    step: Step[I, S, R]): (Seq[ViewStat], Seq[R]) = {
    val optimizer = mode match {
      case Adaptive(b) => Some(new SplittingOptimizer(b))
      case _           => None
    }
    var currentEdges: DataFrame = null // canonical (unsymmetrized) E_t
    var state: Option[S] = None
    val stats = Seq.newBuilder[ViewStat]
    val results = Seq.newBuilder[R]

    for (t <- 0 until collection.numViews) {
      val (delta, deltaCnt) = ckptCounted(collection.diffsAt(t))
      val adds = fresh(delta.where(col("diff") > 0).select("eid", "src", "dst", "weight"))
      val dels = fresh(delta.where(col("diff") < 0).select("eid"))
      val (edges, edgeCnt) = ckptCounted(
        if (currentEdges == null) adds
        else currentEdges.unionByName(adds).join(dels, Seq("eid"), "left_anti"))
      currentEdges = edges
      val in = step.input(edges, delta)

      val runDiff = state.isDefined && (mode match {
        case DiffOnly    => true
        case ScratchOnly => false
        case Adaptive(_) => optimizer.get.decide(t, edgeCnt, deltaCnt)
      })

      val t0 = System.nanoTime()
      val next = if (runDiff) step.advance(state.get, in) else step.scratch(in)
      val ms = (System.nanoTime() - t0) / 1000000
      state = Some(next)
      optimizer.foreach(_.observe(runDiff, if (runDiff) deltaCnt else edgeCnt, ms))

      stats += ViewStat(t, collection.viewNames(t), runDiff, ms, edgeCnt, deltaCnt,
                        step.log(next))
      if (keepResults) results += step.result(next)
    }
    (stats.result(), results.result())
  }
}
