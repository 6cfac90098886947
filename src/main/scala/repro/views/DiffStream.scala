package repro.views

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Edge difference stream (§3.2, step 3).
  *
  * Given the (possibly reordered) EBM, each edge contributes +1 at every
  * position where its membership flips 0→1 and −1 where it flips 1→0,
  * scanning the ordered view sequence left to right with an implicit
  * leading 0 — exactly the DD difference-set semantics
  * δC_t = GV_t − ⋃_{s&lt;t} δC_s. Per-edge independence makes this one
  * `flatMap` (embarrassingly parallel, like the paper's TD dataflow).
  */
object DiffStream {

  /** Difference stream `t, eid, src, dst, weight, diff(+1|-1)` for the EBM
    * under column ordering `order` (position t holds original view
    * `order(t)`).
    */
  def compute(ebm: DataFrame, order: Seq[Int]): DataFrame =
    ebm
      .withColumn("__tr", explode(transitions(order)(col("bits"))))
      .select(col("__tr._1").as("t"), col("eid"), col("src"), col("dst"),
              col("weight"), col("__tr._2").as("diff"))

  /** Total number of differences Σ_t |δC_t| for the EBM under `order` —
    * the COP objective (Definition 1). Computed without materializing the
    * stream.
    */
  def countDiffs(ebm: DataFrame, order: Seq[Int]): Long =
    ebm.select(sum(size(transitions(order)(col("bits")))).as("n")).collect()(0).getLong(0)

  /** An EBM row's membership flips `(t, +1|-1)` under `order`. */
  private def transitions(order: Seq[Int]) = {
    val ord = order.toArray
    udf { (bits: Seq[Long]) =>
      var prev = false
      val out = Seq.newBuilder[(Int, Int)]
      var t = 0
      while (t < ord.length) {
        val j = ord(t)
        val cur = (bits(j / 64) & (1L << (j % 64))) != 0L
        if (cur != prev) out += ((t, if (cur) 1 else -1))
        prev = cur
        t += 1
      }
      out.result()
    }
  }

  /** The diffs fed to DD when advancing to position t. */
  def at(diffs: DataFrame, t: Int): DataFrame = diffs.where(col("t") === t)
}
