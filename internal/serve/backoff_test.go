package serve

// backoffDelay keeps the ladder tests' name for BackoffDelay.
var backoffDelay = BackoffDelay
